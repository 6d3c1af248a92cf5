package explore

import (
	"fmt"
	"runtime"
	"slices"
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
