// Command stackbench is the framework's own performance benchmark: four
// closed-loop workloads that between them drive every layer of the
// stack — the controlled runtime (sched), the exploration engine
// (explore), the randomized finders (fuzz, pct, noise, race), coverage,
// the campaign runner and store (campaign) and the distributed campaign
// service (campsvc) — with every output checked.
//
// Workloads (one per process; a round is a fixed unit of work, and the
// loop starts the next round only when the last one has finished):
//
//   - exhaust-short: DPOR + state-cache exhaustion of philosophers{3,1},
//     account{3,1}, account{2,2} and statmax{3}, the explore-por finder's
//     configuration, once at 1 worker and once at 2 per round. Traces
//     are 20-120 steps, so per-schedule costs dominate. Checks: every
//     search exhausts with no error and the warm-up's bug set, and at 1
//     worker with the warm-up's schedule count.
//   - long-trace: adhocsync and livelock at a 10,000-step bound, plain
//     DFS on 400 schedules and DPOR + state cache on 40. Spin loops run
//     to the bound, so per-step costs dominate. Checks: no error, the
//     full budget spent, the warm-up's bug set.
//   - hunt: campaign.Run over fuzz, noise, pct and race × six bug
//     programs at full size, budget 1,000, one campaign seed per round.
//     Checks: every cell ran and none has an abnormal outcome.
//   - fleet: the 8-finder gate matrix at budget 50 × 10 seeds (560 cells
//     of about 1 ms), through a fresh campsvc coordinator on an fsync'd
//     file store per round, served over loopback HTTP to two in-process
//     workers. Check: the compacted store is byte-identical to an
//     in-process campaign.Run of the same config.
//
// Workers never exceed two, matching two-CPU test machines. The seed
// shifts the hunt and fleet campaign seeds and shuffles op order in
// exhaust-short and long-trace. The development seed is 1; a claim must
// also hold on another seed.
//
// Metrics. A run with -trace 0 reports the end-to-end metrics, measured
// with tracing off:
//
//   - setup_s: the median of three set-ups, warm-ups included;
//   - round_ms: the median round time. A round's work is fixed, so this
//     is also the workload's inverse throughput;
//   - peak_rss_mb: the median over rounds of the resident set's peak
//     during the round.
//
// Both times are at nominal machine speed: each set-up and round is
// timed right after a fixed calibration loop and scaled by the loop's
// nominal time over its measured time (see calibrate), which divides
// out most of a shared machine's drift. The raw wall times are logged.
//
// A run with -trace 1 reports the per-layer metrics instead. It
// alternates traced and untraced rounds of the workload
// (trace.overhead_frac, go.allocs_per_round, go.gc_cpu_frac), then runs
// the layer probes, which time each module's public functions on fixed
// inputs: sched unit costs, explore schedule and step costs with the
// exploration driver's share of them, per-finder run rates, coverage
// merge, store append and compaction, and campsvc round trips. Spans of
// the traced calls are kept in memory and written as JSONL at exit
// (-spans).
//
// Every metric is printed as "workload metric value unit", and the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. BENCHMARK.json at the repository root
// lists the workloads and metrics, with each end-to-end metric's bound:
// the share of the old median by which the new one may be worse.
//
// Usage, from the repository root (run.sh builds into .bench_build/):
//
//	bash stackbench/run.sh -workload hunt -seed 1 -seconds 20 -trace 0
//	bash stackbench/run.sh -workload hunt -seed 1 -seconds 20 -trace 1 -spans hunt.jsonl
//	bash stackbench/run.sh -quick               # every workload, one round each
//	bash stackbench/run.sh -list                # workloads and metrics with units
//
// To compare two commits, run each side's benchmark on the same seeds,
// alternating sides, appending every result with -out:
//
//	for s in 1 2 3 4 5 6 7 8 9 10; do
//	  (cd parent && bash stackbench/run.sh -workload hunt -seed $s -out ../old.jsonl)
//	  (cd change && bash stackbench/run.sh -workload hunt -seed $s -out ../new.jsonl)
//	done
//	bash stackbench/run.sh -compare old.jsonl new.jsonl
//
// -compare reports each side's median and quartiles per (workload,
// metric) and marks an end-to-end metric regressed when its median is
// worse than the bound allows, unresolved when the old runs' own
// quartile spread exceeds the bound, and improved only when the new side
// wins nine of ten pairs by more than that spread. It exits 1 on a
// regression.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"time"

	"mtbench/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes: 0 every check held, 1 a check failed (the result is still
// printed), 2 the benchmark could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "how long to measure; at least three rounds run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spans := fs.String("spans", "", "traced runs write their spans here as JSONL (default: in the temp dir)")
	out := fs.String("out", "", "append the result, tagged with workload and seed, to this JSONL file")
	quick := fs.Bool("quick", false, "one set-up and one round (every workload unless -workload is set)")
	list := fs.Bool("list", false, "list workloads and metrics with units")
	compare := fs.String("compare", "", "classify OLD.jsonl against the NEW.jsonl argument instead of running")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark description holding the bounds -compare applies")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *list:
		printList(stdout)
		return 0
	case *compare != "":
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "stackbench: -compare takes OLD.jsonl and one NEW.jsonl argument")
			return 2
		}
		regressed, err := runCompare(*spec, *compare, fs.Arg(0), stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "stackbench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "stackbench: -trace is 0 or 1")
		return 2
	}

	var selected []*workload
	switch {
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "stackbench: unknown workload %q (see -list)\n", *name)
			return 2
		}
		selected = []*workload{w}
	case *quick:
		selected = workloads
	default:
		fmt.Fprintln(stderr, "stackbench: -workload is required (see -list)")
		return 2
	}

	opts := runOpts{seed: *seed, seconds: *seconds, setups: 3, minRounds: 3, trace: *trace == 1, probes: fullProbes}
	if *quick {
		opts.seconds, opts.setups, opts.minRounds, opts.probes = 0, 1, 1, quickProbes
	}
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "stackbench:", err)
		return 2
	}
	defer stopProf()

	code := 0
	for _, w := range selected {
		res, recorded, err := measure(w, opts, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "stackbench: %s: %v\n", w.name, err)
			return 2
		}
		if opts.trace {
			path := *spans
			if path == "" {
				path = filepath.Join(os.TempDir(), "stackbench-spans-"+w.name+".jsonl")
			}
			printSelfTimes(stderr, recorded)
			if err := writeSpans(path, recorded); err != nil {
				fmt.Fprintln(stderr, "stackbench: write spans:", err)
				return 2
			}
			fmt.Fprintf(stderr, "wrote %d spans to %s\n", len(recorded), path)
		}
		if *out != "" {
			if err := appendResult(*out, w.name, opts.seed, res); err != nil {
				fmt.Fprintln(stderr, "stackbench:", err)
				return 2
			}
		}
		if err := printResult(stdout, w.name, res); err != nil {
			fmt.Fprintln(stderr, "stackbench:", err)
			return 2
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runOpts configures one measurement.
type runOpts struct {
	seed      int64
	seconds   float64
	setups    int // set-up repetitions; setup_s is their median
	minRounds int
	trace     bool
	probes    probeSize
}

// measure sets the workload up opts.setups times, then runs rounds until
// opts.seconds have passed. A traced run alternates traced and untraced
// rounds and then runs the layer probes.
func measure(w *workload, opts runOpts, log io.Writer) (*result, []span, error) {
	// Every set-up and round is timed right after the calibration loop
	// and reported at nominal speed (see calibrate); the raw wall times
	// go to the log.
	var setupWalls, setupS []float64
	var b bench
	for k := 0; k < opts.setups; k++ {
		if b != nil {
			b.close()
		}
		cal := calibrate()
		start := time.Now()
		nb, err := w.setup(opts.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(start).Seconds()
		setupWalls, setupS = append(setupWalls, wall), append(setupS, wall*nominalCalMs/cal)
		b = nb
	}
	defer b.close()

	var tr *tracer
	minRounds := opts.minRounds
	if opts.trace {
		tr = newTracer()
		minRounds = max(minRounds, 2) // one traced, one not
	}
	attempted, failed := 0, 0
	tally := func(r roundResult) {
		attempted += r.attempted
		failed += len(r.fails)
		for _, f := range r.fails {
			fmt.Fprintln(log, "check failed:", f)
		}
	}

	var walls, cals, roundMs, tracedMs, peaks []float64
	before := readRuntime()
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start).Seconds() < opts.seconds; i++ {
		var rt *tracer
		if opts.trace && i%2 == 1 {
			rt = tr
		}
		cal := calibrate()
		if err := resetPeakRSS(); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		r := b.round(i, rt)
		wall := float64(time.Since(t0).Nanoseconds()) / 1e6
		peak, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		walls, cals, peaks = append(walls, wall), append(cals, cal), append(peaks, peak)
		if rt != nil {
			tracedMs = append(tracedMs, wall*nominalCalMs/cal)
		} else {
			roundMs = append(roundMs, wall*nominalCalMs/cal)
		}
		tally(r)
	}
	elapsed := time.Since(start).Seconds()
	after := readRuntime()
	rounds := float64(len(walls))
	fmt.Fprintf(log, "%s: %d rounds in %.1fs\nset-up wall s: %v\nround wall ms: %v\ncalibration ms: %v\n",
		w.name, len(walls), elapsed, setupWalls, walls, cals)

	m := metrics{}
	if !opts.trace {
		m["setup_s"] = median(setupS)
		m["round_ms"] = median(roundMs)
		m["peak_rss_mb"] = median(peaks)
		res, err := newResult(endToEnd, m, attempted, failed)
		return res, nil, err
	}
	m["trace.overhead_frac"] = median(tracedMs)/median(roundMs) - 1
	m["go.allocs_per_round"] = (after.allocs - before.allocs) / rounds
	m["go.gc_cpu_frac"] = 0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 { // the runtime updates these at GC cycles
		m["go.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
	n, fails, err := runProbes(opts.seed, tr, opts.probes, m)
	if err != nil {
		return nil, nil, fmt.Errorf("probes: %w", err)
	}
	tally(roundResult{attempted: n, fails: fails})
	res, err := newResult(perLayer, m, attempted, failed)
	return res, tr.snapshot(), err
}

// runtimeSample is the slice of runtime/metrics the traced run reports.
type runtimeSample struct {
	allocs, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return runtimeSample{
		allocs:   float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// resetPeakRSS lowers the kernel's peak-RSS mark to the current resident
// set, so the next peakRSSMB covers one round: a rare spike then moves
// one round's sample, not the whole run's maximum.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set since the last reset.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(kb), "kB")), 64)
			return v / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// printResult prints every metric as "workload metric value unit" and
// then the result as one JSON line, which must be the last line.
func printResult(w io.Writer, workload string, res *result) error {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.Metrics[d.name]; ok {
				fmt.Fprintf(w, "%s %s %s %s\n", workload, d.name, strconv.FormatFloat(v.Value, 'g', -1, 64), d.unit)
			}
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runLine is a result tagged for -compare.
type runLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	*result
}

func appendResult(path, workload string, seed int64, res *result) error {
	data, err := json.Marshal(runLine{Workload: workload, Seed: seed, result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(data, '\n'))
	return errors.Join(err, f.Close())
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s round: %s\n  %-14s %s\n", wl.name, wl.round, "", wl.why)
	}
	for _, group := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end metrics (-trace 0):", endToEnd}, {"per-layer metrics (-trace 1):", perLayer}} {
		fmt.Fprintln(w, group.title)
		for _, d := range group.defs {
			fmt.Fprintf(w, "  %-34s %-9s %s is better\n", d.name, d.unit, d.better)
		}
	}
}

// nominalCalMs is the calibration loop's time on an unloaded 2-vCPU
// x86-64 VM; the speed at which it takes this long is the nominal speed
// times are reported at.
const nominalCalMs = 10.0

// calibrate times a fixed loop that does not touch the framework: two
// goroutines exchanging 20,000 values over unbuffered channels, folding
// them into a map — goroutine handoffs and hashing, what the framework's
// hot paths do most. The shared machines the benchmark runs on drift in
// speed by 10-30% over minutes (host contention: CPU time drifts with
// wall time), and the loop slows down with the code, so each set-up and
// round is timed right after the loop and scaled by nominalCalMs over
// the loop's time. Over ten back-to-back runs on a shared 2-vCPU VM this
// cut the spread (IQR over median) of round times from 9-30% to 1-6%.
func calibrate() float64 {
	const n = 20_000
	in, out := make(chan uint64), make(chan uint64)
	m := make(map[uint64]uint64, 4096)
	start := time.Now()
	go func() {
		defer close(out)
		for v := range in {
			out <- v*6364136223846793005 + 1442695040888963407
		}
	}()
	x := uint64(1)
	for i := 0; i < n; i++ {
		in <- x
		x = <-out
		m[x%4096] += x
	}
	close(in)
	<-out
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
