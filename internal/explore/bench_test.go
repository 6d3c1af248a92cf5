package explore

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"mtbench/internal/repository"
)

// benchmarkWorkers measures raw search throughput — schedules per
// second — at a given worker count. The workload is a fixed
// MaxSchedules budget over a repository buggy program (no
// StopAtFirstBug, so every iteration does the same amount of work
// regardless of where bugs fall). On an idle 8-core machine
// Workers=8 should deliver well over 3x the schedules/sec of
// Workers=1; run with
//
//	go test -bench=ExploreWorkers -benchtime=5x ./internal/explore/
func benchmarkWorkers(b *testing.B, program string, workers, budget int) {
	prog, err := repository.Get(program)
	if err != nil {
		b.Fatal(err)
	}
	body := prog.BodyWith(smallParams[program])
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Explore(Options{MaxSchedules: budget, Workers: workers}, body)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		total += res.Schedules
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "schedules/sec")
}

func BenchmarkExploreWorkers(b *testing.B) {
	// NumCPU may repeat a fixed count (2 or 4), which would emit a
	// duplicate "workers=N#01" row; run each count once.
	counts := []int{1, 2, 4, runtime.NumCPU()}
	slices.Sort(counts)
	counts = slices.Compact(counts)
	for _, program := range []string{"philosophers", "account"} {
		for _, workers := range counts {
			b.Run(fmt.Sprintf("%s/workers=%d", program, workers), func(b *testing.B) {
				benchmarkWorkers(b, program, workers, 2000)
			})
		}
	}
}

// BenchmarkExploreSleepSetsWorkers measures throughput with sleep-set
// pruning on, the configuration closest to real verification sweeps.
func BenchmarkExploreSleepSetsWorkers(b *testing.B) {
	prog, err := repository.Get("philosophers")
	if err != nil {
		b.Fatal(err)
	}
	body := prog.BodyWith(smallParams["philosophers"])
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res := Explore(Options{MaxSchedules: 2000, SleepSets: true, Workers: workers}, body)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				total += res.Schedules
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "schedules/sec")
		})
	}
}

// BenchmarkExploreReducedWorkers measures how DPOR + state-cache
// exhaustion of account{3,1} scales with workers, doubling the count
// from 1 up to NumCPU. The kit and cache pools are warmed at the
// largest count before anything is timed, so no sub-benchmark pays for
// runner or table construction. Besides schedules/sec it reports
// sched_ratio, the schedules an exhaustion executes over the serial
// count: the extra work parallel reduction does, which shows without
// extra cores. Run with
//
//	go test -run '^$' -bench ExploreReducedWorkers -benchtime 5x ./internal/explore/
func BenchmarkExploreReducedWorkers(b *testing.B) {
	prog, err := repository.Get("account")
	if err != nil {
		b.Fatal(err)
	}
	body := prog.BodyWith(repository.Params{"depositors": 3, "deposits": 1})
	exhaust := func(b *testing.B, workers int) int {
		res := Explore(Options{MaxSchedules: 200000, Workers: workers, DPOR: true, StateCache: true}, body)
		if res.Err != nil || !res.Exhausted {
			b.Fatalf("workers=%d: err=%v exhausted=%v", workers, res.Err, res.Exhausted)
		}
		return res.Schedules
	}
	var counts []int
	for w := 1; w <= runtime.NumCPU(); w *= 2 {
		counts = append(counts, w)
	}
	exhaust(b, counts[len(counts)-1])
	serial := exhaust(b, 1)
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				total += exhaust(b, workers)
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "schedules/sec")
			b.ReportMetric(float64(total)/float64(b.N*serial), "sched_ratio")
		})
	}
}

var cacheSink bool

// BenchmarkStateCache times the shared state cache's three operations
// — a lookup that hits (and copies the entry out), a lookup that
// misses on a slot holding another state, and an insert — on one
// goroutine and under b.RunParallel, where every goroutine walks its
// own run of slots as the workers of one search do.
func BenchmarkStateCache(b *testing.B) {
	c := newStateCache()
	sum := make([]uint64, 8)
	// Distinct keys in scattered slots (an odd multiplier permutes the
	// slot indices), so consecutive keys land on unrelated lock stripes
	// as real state hashes do.
	const keys = stateCacheSize / 8
	hashes := make([]uint64, keys)
	for i := range hashes {
		hashes[i] = uint64(i)<<32 | uint64(i)*0x9e3779b1&c.mask
		c.insert(hashes[i], 0, sum)
	}
	var hit cacheEnt
	if !c.lookup(hashes[keys-1], 0, &hit) || int(hit.nsum) != len(sum) {
		b.Fatal("warm cache misses a key it holds")
	}
	ops := []struct {
		name string
		op   func(h uint64, hit *cacheEnt) bool
	}{
		{"hit", func(h uint64, hit *cacheEnt) bool { return c.lookup(h, 0, hit) }},
		{"miss", func(h uint64, hit *cacheEnt) bool { return c.lookup(h^1<<63, 0, hit) }},
		{"insert", func(h uint64, _ *cacheEnt) bool { c.insert(h, 0, sum); return true }},
	}
	for _, o := range ops {
		b.Run(o.name+"/serial", func(b *testing.B) {
			var hit cacheEnt
			ok := false
			for i := 0; i < b.N; i++ {
				ok = o.op(hashes[i%keys], &hit)
			}
			cacheSink = ok
		})
		b.Run(o.name+"/parallel", func(b *testing.B) {
			var start atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				var hit cacheEnt
				for i := int(start.Add(keys / 16)); pb.Next(); i++ {
					o.op(hashes[i%keys], &hit)
				}
			})
		})
	}
}
