// Command bench runs the framework's schedules-per-second benchmarks
// outside `go test` and emits a machine-readable JSON file — the perf
// trajectory artifact each performance PR checks in (BENCH_<n>.json)
// or uploads from CI, so throughput changes are visible run over run
// instead of living in PR descriptions.
//
// The workloads mirror BenchmarkExploreWorkers and BenchmarkFuzz (same
// programs, same shrunken parameters, same budgets), plus a raw
// pooled-runner microbenchmark of the controlled runtime itself. Each
// entry reports ns/op, schedules/sec and allocs/op as measured by
// testing.Benchmark.
//
// Usage:
//
//	bench -out auto                  # next BENCH_<n>.json after the highest checked in
//	bench -quick -out bench.json     # one iteration per workload (CI smoke)
//	bench -list                      # print workload names
//	bench -compare OLD.json NEW.json # regression table; exit 1 beyond -threshold
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"mtbench/internal/core"
	"mtbench/internal/explore"
	"mtbench/internal/fuzz"
	"mtbench/internal/profiling"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// smallParams shrinks the larger repository programs exactly as the
// package benchmarks do, so numbers are comparable with `go test
// -bench` output.
var smallParams = map[string]repository.Params{
	"account":      {"depositors": 2, "deposits": 1},
	"statmax":      {"reporters": 2},
	"philosophers": {"philosophers": 2, "rounds": 1},
}

// budget is the per-op schedule budget shared by the search workloads.
const budget = 2000

// Entry is one benchmark result. Field names are pinned: CI tooling
// and trend scripts parse them.
type Entry struct {
	Name            string  `json:"name"`
	Iterations      int     `json:"iterations"`
	NsPerOp         int64   `json:"ns_per_op"`
	SchedulesPerSec float64 `json:"schedules_per_sec"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
}

// Report is the top-level JSON document. GoMaxProcs records the
// parallelism actually available to the run (CI boxes routinely pin
// containers to one core while NumCPU reports the host), so worker-
// scaling trajectories across BENCH files are interpretable.
type Report struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Benchmarks []Entry `json:"benchmarks"`
}

// workload is one named benchmark body (run executes iteration i);
// schedulesPerOp converts ns/op into schedules/sec.
type workload struct {
	name           string
	schedulesPerOp int
	run            func(i int) error
}

func body(name string) (func(core.T), error) {
	prog, err := repository.Get(name)
	if err != nil {
		return nil, err
	}
	return prog.BodyWith(smallParams[name]), nil
}

// workloads builds the benchmark list; profiled turns on the driver's
// pprof phase labels (see DESIGN.md) in the exploration workloads so a
// -cpuprofile run attributes samples per phase.
func workloads(profiled bool) ([]workload, error) {
	var out []workload

	// Raw controlled-runtime throughput: one pooled runner executing
	// the nonpreemptive baseline schedule back to back. This is the
	// floor every search tool builds on.
	accountBody, err := body("account")
	if err != nil {
		return nil, err
	}
	runner := sched.NewRunner()             // lives for the process; pooling is the point
	runner.Run(sched.Config{}, accountBody) // warm the pool outside the timer
	out = append(out, workload{
		name:           "sched/pooled-run/account",
		schedulesPerOp: 1,
		run: func(int) error {
			runner.Run(sched.Config{}, accountBody)
			return nil
		},
	})

	// On a box with one schedulable core (GOMAXPROCS=1) multi-worker
	// runs measure the same serial execution with extra coordination
	// noise — the flat "scaling" BENCH_4.json recorded on the 1-CPU CI
	// runner. Skip the redundant counts there; the header's gomaxprocs
	// says why the matrix is smaller.
	workerCounts := []int{1, 2, 4, runtime.NumCPU()}
	if runtime.GOMAXPROCS(0) == 1 {
		workerCounts = []int{1}
	}
	seen := map[int]bool{}
	var workers []int
	for _, w := range workerCounts {
		if !seen[w] {
			seen[w] = true
			workers = append(workers, w)
		}
	}

	for _, prog := range []string{"philosophers", "account"} {
		pb, err := body(prog)
		if err != nil {
			return nil, err
		}
		for _, w := range workers {
			w := w
			out = append(out, workload{
				name:           fmt.Sprintf("explore/%s/workers=%d", prog, w),
				schedulesPerOp: budget,
				run: func(int) error {
					res := explore.Explore(explore.Options{MaxSchedules: budget, Workers: w, ProfileLabels: profiled}, pb)
					return res.Err
				},
			})
		}
	}

	// Reduced exploration: DPOR + state cache exhaust the whole tree
	// in a fraction of the schedules, so the op is "explore the full
	// reduced tree" and schedules/sec reflects the reduced count
	// (learned by a warm-up exhaustion outside the timer).
	for _, prog := range []string{"philosophers", "account"} {
		pb, err := body(prog)
		if err != nil {
			return nil, err
		}
		porOpts := explore.Options{MaxSchedules: 200000, Workers: 1, DPOR: true, StateCache: true, ProfileLabels: profiled}
		warm := explore.Explore(porOpts, pb)
		if warm.Err != nil {
			return nil, warm.Err
		}
		out = append(out, workload{
			name:           fmt.Sprintf("explore-por/%s/workers=1", prog),
			schedulesPerOp: warm.Schedules,
			run: func(int) error {
				res := explore.Explore(porOpts, pb)
				return res.Err
			},
		})
	}

	// Snapshot-positioned exploration: the same exhaustive searches
	// with branch snapshots (explore.Options.Snapshots), which trade
	// prefix replay for fast-forwards. Snapshots require the state
	// cache, so the explore/* variant here is cache-only reduction and
	// the explore-por/* variant is the full reduced stack. The row
	// names keep their "checkpoints=4" suffix from the retired
	// parked-runner budget: they are trajectory keys across BENCH files
	// and CI's -compare. The coast-mode entries above likewise keep
	// their pinned names and configs.
	for _, prog := range []string{"philosophers", "account"} {
		pb, err := body(prog)
		if err != nil {
			return nil, err
		}
		for _, mode := range []struct {
			family string
			dpor   bool
		}{
			{"explore", false},
			{"explore-por", true},
		} {
			opts := explore.Options{
				MaxSchedules: 200000, Workers: 1,
				DPOR: mode.dpor, StateCache: true, Snapshots: true,
				ProfileLabels: profiled,
			}
			warm := explore.Explore(opts, pb)
			if warm.Err != nil {
				return nil, warm.Err
			}
			out = append(out, workload{
				name:           fmt.Sprintf("%s/%s/workers=1/checkpoints=4", mode.family, prog),
				schedulesPerOp: warm.Schedules,
				run: func(int) error {
					res := explore.Explore(opts, pb)
					return res.Err
				},
			})
		}
	}

	for _, prog := range []string{"account", "abastack"} {
		pb, err := body(prog)
		if err != nil {
			return nil, err
		}
		for _, w := range workers {
			w := w
			out = append(out, workload{
				name:           fmt.Sprintf("fuzz/%s/workers=%d", prog, w),
				schedulesPerOp: budget,
				run: func(i int) error {
					fuzz.Fuzz(fuzz.Options{MaxRuns: budget, Seed: int64(i), Workers: w}, pb)
					return nil
				},
			})
		}
	}
	return out, nil
}

func main() {
	out := flag.String("out", "auto", "output JSON path (- for stdout, auto = next BENCH_<n>.json)")
	quick := flag.Bool("quick", false, "single iteration per workload (CI smoke)")
	list := flag.Bool("list", false, "list workload names and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	compare := flag.String("compare", "", "compare this old report against the NEW.json positional argument instead of benchmarking")
	threshold := flag.Float64("threshold", 1.5, "ns/op regression ratio that fails -compare (1.5 = 50% slower)")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes exactly one positional argument (usage: bench -compare OLD.json NEW.json)")
			os.Exit(2)
		}
		regressed, err := runCompare(*compare, flag.Arg(0), *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	err = run(*out, *quick, *list, *cpuProfile != "")
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// resolveOut expands "auto" to the BENCH_<n>.json following the
// highest-numbered one already present (BENCH_1.json when none exist),
// so a perf PR never clobbers the checked-in trajectory it extends.
func resolveOut(out string) (string, error) {
	if out != "auto" {
		return out, nil
	}
	names, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return "", err
	}
	max := 0
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(name, "BENCH_%d.json", &n); err == nil && n > max {
			max = n
		}
	}
	return fmt.Sprintf("BENCH_%d.json", max+1), nil
}

func run(out string, quick, list, profiled bool) error {
	out, err := resolveOut(out)
	if err != nil {
		return err
	}
	ws, err := workloads(profiled)
	if err != nil {
		return err
	}
	if list {
		for _, w := range ws {
			fmt.Println(w.name)
		}
		return nil
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchmarks: make([]Entry, 0, len(ws)),
	}
	for _, w := range ws {
		e, err := measure(w, quick)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
		fmt.Fprintf(os.Stderr, "%-34s %12d ns/op %12.0f schedules/sec %8d allocs/op\n",
			e.Name, e.NsPerOp, e.SchedulesPerSec, e.AllocsPerOp)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool { return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name })

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", out, len(rep.Benchmarks))
	return nil
}
