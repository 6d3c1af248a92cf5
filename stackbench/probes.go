package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"mtbench/internal/campaign"
	"mtbench/internal/core"
	"mtbench/internal/coverage"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// The layer probes run, traced, at the end of every traced run whatever
// the workload, so each traced run carries the whole layer table. Each
// probe calls one module's public functions on a fixed input built from
// the seed and derives its metrics from the spans around those calls.

// probeSize scales the probes; quick runs shrink them.
type probeSize struct {
	samples   int           // timed samples per sched configuration
	reps      int           // repetitions of each search probe
	campaigns int           // traced distributed campaigns
	merges    int           // timed coverage merges
	appends   int           // timed store appends
	drainCap  time.Duration // longest wait for the last campaign's workers to notice Done
}

var (
	fullProbes  = probeSize{samples: 5, reps: 3, campaigns: 2, merges: 2000, appends: 2000, drainCap: fleetTimeout}
	quickProbes = probeSize{samples: 1, reps: 1, campaigns: 1, merges: 100, appends: 100, drainCap: 2 * time.Second}
)

// runProbes measures every layer metric into m and returns the failed
// checks of the probes' own outputs with the number attempted.
func runProbes(seed int64, tr *tracer, size probeSize, m metrics) (attempted int, fails []string, err error) {
	probeSched(tr, size, m)
	probeCoverage(seed, tr, size, m)
	if err := probeStore(tr, size, m); err != nil {
		return 0, nil, err
	}
	for _, probe := range []func(int64, *tracer, probeSize, metrics) (roundResult, error){
		probeExhaust, probeLong, probeFinders, probeFleet,
	} {
		r, err := probe(seed, tr, size, m)
		if err != nil {
			return 0, nil, err
		}
		attempted += r.attempted
		fails = append(fails, r.fails...)
	}
	return attempted, fails, nil
}

// probeSched times a synthetic 2-thread body through one pooled
// sched.Runner: each thread yields spinYields times, so the same body
// gives the continue-current cost under the default strategy, the
// handoff cost under round-robin ping-pong, and the fast-forward cost
// when the round-robin schedule is replayed through Config.FastForward.
// The empty body (threads that return at once) is the per-run cost.
func probeSched(tr *tracer, size probeSize, m metrics) {
	const spinYields, spinRuns, emptyRuns = 500, 200, 5000
	runner := sched.NewRunner()
	defer runner.Close()
	twoThreads := func(yields int) func(core.T) {
		return func(t core.T) {
			spin := func(wt core.T) {
				for i := 0; i < yields; i++ {
					wt.Yield()
				}
			}
			a, b := t.Go("a", spin), t.Go("b", spin)
			a.Join(t)
			b.Join(t)
		}
	}
	empty, spin := twoThreads(0), twoThreads(spinYields)
	timeRuns := func(name string, cfg sched.Config, body func(core.T), runs int) (nsPerRun, steps float64) {
		var per []float64
		var res *core.Result
		for s := 0; s < size.samples; s++ {
			id := tr.begin(0, "sched", "Runner.Run", fmt.Sprintf("%s x%d", name, runs))
			for r := 0; r < runs; r++ {
				res = runner.Run(cfg, body)
			}
			per = append(per, float64(tr.end(id))/float64(runs))
		}
		return median(per), float64(res.Steps)
	}

	rr := sched.Config{Strategy: sched.RoundRobin(), SkipTiming: true}
	runNs, emptySteps := timeRuns("empty", sched.Config{SkipTiming: true}, empty, emptyRuns)
	contNs, contSteps := timeRuns("continue", sched.Config{SkipTiming: true}, spin, spinRuns)
	swNs, swSteps := timeRuns("switch", rr, spin, spinRuns)
	recorded := rr
	recorded.RecordSchedule = true
	schedule := slices.Clone(runner.Run(recorded, spin).Schedule)
	ff := rr
	ff.FastForward = schedule[:len(schedule)-1]
	ffNs, _ := timeRuns("fast-forward", ff, spin, spinRuns)

	m["sched.run_ns"] = runNs
	m["sched.continue_ns"] = (contNs - runNs) / (contSteps - emptySteps)
	m["sched.switch_ns"] = (swNs - runNs) / (swSteps - emptySteps)
	m["sched.ff_ns"] = (ffNs - runNs) / float64(len(ff.FastForward))
}

// driverFrac is the share of a search's measured time that the sched
// unit costs do not predict: what the exploration driver (strategy,
// reduction, state hashing, bookkeeping) adds on top of running the
// program.
func driverFrac(m metrics, schedules, steps, switches, measuredNs float64) float64 {
	predicted := schedules*m["sched.run_ns"] + steps*m["sched.continue_ns"] +
		switches*(m["sched.switch_ns"]-m["sched.continue_ns"])
	return 1 - predicted/measuredNs
}

// probeExhaust repeats exhaust-short's serial and 2-worker passes.
func probeExhaust(seed int64, tr *tracer, size probeSize, m metrics) (roundResult, error) {
	bi, err := setupExhaust(seed)
	if err != nil {
		return roundResult{}, err
	}
	b := bi.(*exhaustBench)
	var r roundResult
	var ns1, ns2, sched1, sched2 []float64
	var steps1, replayed1, hits1, pruned1 float64
	pass := func(searches []*search, ns, scheds *[]float64) {
		var total, count int64
		root := tr.begin(0, "bench", "probe", "exhaust-short")
		defer tr.end(root)
		for _, s := range searches {
			res, took, fail := s.run(tr, root)
			total += took
			count += int64(res.Schedules)
			r.op(fail)
			if s.opts.Workers == 1 {
				steps1 += float64(res.Stats.TotalSteps)
				replayed1 += float64(res.Stats.ReplayedSteps)
				hits1 += float64(res.Stats.StateHits)
				pruned1 += float64(res.Stats.PORPruned)
			}
		}
		*ns = append(*ns, float64(total))
		*scheds = append(*scheds, float64(count))
	}
	for rep := 0; rep < size.reps; rep++ {
		if rep%2 == 0 {
			pass(b.w1, &ns1, &sched1)
			pass(b.w2, &ns2, &sched2)
		} else {
			pass(b.w2, &ns2, &sched2)
			pass(b.w1, &ns1, &sched1)
		}
	}
	var switches, runs float64
	for _, s := range b.w1 {
		sw, n := countSwitches(s)
		switches += float64(sw)
		runs += float64(n)
	}
	reps := float64(size.reps)
	steps1, replayed1, hits1, pruned1 = steps1/reps, replayed1/reps, hits1/reps, pruned1/reps

	s1, s2 := median(sched1), median(sched2)
	m["explore.schedules_w1"] = s1
	m["explore.schedules_w2"] = s2
	m["explore.sched_ratio_w2"] = s2 / s1
	m["explore.speedup_w2"] = median(ns1) / median(ns2)
	m["explore.ns_per_schedule"] = median(ns1) / s1
	m["explore.replayed_frac"] = replayed1 / steps1
	m["explore.state_hits_per_schedule"] = hits1 / s1
	m["explore.por_pruned"] = pruned1
	m["sched.switches_per_schedule"] = switches / runs
	m["explore.driver_frac_exhaust"] = driverFrac(m, s1, steps1, switches, median(ns1))
	return r, nil
}

// probeLong repeats long-trace's searches and splits them by mode.
func probeLong(seed int64, tr *tracer, size probeSize, m metrics) (roundResult, error) {
	bi, err := setupLong(seed)
	if err != nil {
		return roundResult{}, err
	}
	b := bi.(*longBench)
	var r roundResult
	type mode struct {
		ns, steps, schedules, switches float64
		perStep                        []float64
	}
	modes := map[bool]*mode{false: {}, true: {}}
	for rep := 0; rep < size.reps; rep++ {
		var ns, steps [2]float64
		root := tr.begin(0, "bench", "probe", "long-trace")
		for _, s := range b.searches {
			res, took, fail := s.run(tr, root)
			i := 0
			if s.opts.DPOR {
				i = 1
			}
			ns[i] += float64(took)
			steps[i] += float64(res.Stats.TotalSteps)
			r.op(fail)
		}
		tr.end(root)
		for i, por := range []bool{false, true} {
			md := modes[por]
			md.ns += ns[i]
			md.steps += steps[i]
			md.perStep = append(md.perStep, ns[i]/steps[i])
		}
	}
	for _, s := range b.searches {
		sw, n := countSwitches(s)
		md := modes[s.opts.DPOR]
		md.switches += float64(sw)
		md.schedules += float64(n)
	}
	reps := float64(size.reps)
	for por, md := range modes {
		name := "plain"
		if por {
			name = "por"
		}
		m["explore.ns_per_step_"+name] = median(md.perStep)
		m["explore.driver_frac_"+name] = driverFrac(m, md.schedules, md.steps/reps, md.switches, md.ns/reps)
	}
	m["explore.por_step_ratio"] = m["explore.ns_per_step_por"] / m["explore.ns_per_step_plain"]
	return r, nil
}

// probeFinders runs one hunt campaign and splits it by finder, from the
// per-cell wall times between Progress callbacks. A cell that found no
// bug counts as needing one run more than its budget.
func probeFinders(seed int64, tr *tracer, _ probeSize, m metrics) (roundResult, error) {
	b := &huntBench{seed: seed}
	var r roundResult
	root := tr.begin(0, "bench", "probe", "hunt")
	recs, walls, err := b.cells(0, tr, root)
	tr.end(root)
	if err != nil {
		r.op(fmt.Sprintf("finder probe: %v", err))
		return r, nil
	}
	runs, secs := map[string]float64{}, map[string]float64{}
	firsts := map[string][]float64{}
	for i, rec := range recs {
		fail := ""
		if rec.Failed() {
			fail = fmt.Sprintf("finder probe: %s: %s", rec.Key(), firstLine(rec.Outcome))
		}
		r.op(fail)
		runs[rec.Finder] += float64(rec.Runs)
		secs[rec.Finder] += walls[i].Seconds()
		first := rec.FirstBug
		if first < 0 {
			first = rec.Budget + 1
		}
		firsts[rec.Finder] = append(firsts[rec.Finder], float64(first))
	}
	for _, f := range huntFinders {
		if secs[f] == 0 {
			return r, fmt.Errorf("finder probe: %s ran no cells", f)
		}
		m[f+".runs_per_s"] = runs[f] / secs[f]
		m[f+".first_bug_runs_p50"] = median(firsts[f])
	}
	return r, nil
}

// probeCoverage times coverage.Tracker.Merge of a per-run tracker, fed
// through its NewShard listener, into a cumulative one.
func probeCoverage(seed int64, tr *tracer, size probeSize, m metrics) {
	prog, err := repository.Get("account")
	if err != nil {
		panic(err) // the repository always registers account
	}
	body := prog.BodyWith(nil)
	runner := sched.NewRunner()
	defer runner.Close()
	total, perRun := coverage.NewTracker(), coverage.NewTracker()
	shard := perRun.NewShard()
	var ns []float64
	for i := 0; i < size.merges; i++ {
		perRun.Reset()
		runner.Run(sched.Config{
			Strategy: sched.Random(core.MixSeed(seed, int64(i))), Listeners: []core.Listener{shard},
			Name: prog.Name, Plan: prog.Plan, SkipTiming: true,
		}, body)
		id := tr.begin(0, "coverage", "Tracker.Merge", prog.Name)
		total.Merge(perRun)
		ns = append(ns, float64(tr.end(id)))
	}
	m["coverage.merge_ns"] = median(ns)
}

// probeStore times campaign.Store appends with fsync off and on, and
// compaction of the resulting journal, in a scratch directory.
func probeStore(tr *tracer, size probeSize, m metrics) error {
	dir, err := os.MkdirTemp("", "stackbench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := campaign.Config{Budget: fleetBudget}
	record := func(i int) campaign.Record {
		return campaign.Record{
			Program: "account", Finder: "fuzz", Seed: int64(i), Budget: fleetBudget, Runs: fleetBudget,
			Bugs: []string{"fail:final balance=20, want 40@prog_races.go:37"}, FirstBug: 3,
		}
	}
	appendAll := func(name string, sync bool, n int) (*campaign.Store, float64, error) {
		s, err := campaign.Create(filepath.Join(dir, name), cfg)
		if err != nil {
			return nil, 0, err
		}
		s.SetSync(sync)
		id := tr.begin(0, "campaign", "Store.Append", fmt.Sprintf("%s x%d", name, n))
		for i := 0; i < n; i++ {
			if err := s.Append(record(i)); err != nil {
				tr.end(id)
				s.Close()
				return nil, 0, err
			}
		}
		return s, float64(tr.end(id)) / float64(n) / 1e3, nil
	}

	plain, us, err := appendAll("plain.jsonl", false, size.appends)
	if err != nil {
		return err
	}
	defer plain.Close()
	m["campaign.append_us"] = us
	synced, us, err := appendAll("synced.jsonl", true, size.appends/10)
	if err != nil {
		return err
	}
	synced.Close()
	m["campaign.append_fsync_us"] = us
	var ms []float64
	for i := 0; i < size.samples; i++ {
		id := tr.begin(0, "campaign", "Store.Compact", fmt.Sprintf("%d records", size.appends))
		if err := plain.Compact(); err != nil {
			return err
		}
		ms = append(ms, float64(tr.end(id))/1e6)
	}
	m["campaign.compact_ms"] = median(ms)
	return nil
}

// probeFleet runs the fleet workload's in-process reference once and
// its distributed campaign size.campaigns times through timed
// transports, letting the workers of the last one drain on their own.
func probeFleet(seed int64, tr *tracer, size probeSize, m metrics) (roundResult, error) {
	bi, err := setupFleet(seed)
	if err != nil {
		return roundResult{}, err
	}
	b := bi.(*fleetBench)
	defer b.close()
	var r roundResult
	root := tr.begin(0, "bench", "probe", "fleet")
	defer tr.end(root)
	_, inproc, err := b.inProcess(tr, root)
	if err != nil {
		return r, err
	}
	from := len(tr.snapshot())
	var walls []float64
	var empty, drain float64
	for c := 0; c < size.campaigns; c++ {
		var drainCap time.Duration
		if c == size.campaigns-1 {
			drainCap = size.drainCap
		}
		fr := b.distributed(c, tr, root, drainCap)
		r.op(fr.fail)
		walls = append(walls, fr.wall.Seconds())
		empty += float64(fr.emptyGrants)
		drain = float64(fr.drain) / 1e6
	}
	spans := tr.snapshot()
	leases := durations(spans, from, "Client.Lease")
	completes := durations(spans, from, "Client.Complete")
	execs := durations(spans, from, "campaign.ExecCell")
	if size == fullProbes {
		for _, n := range []int{len(leases), len(completes)} {
			if tailPercentile(n) < 99 {
				return r, fmt.Errorf("fleet probe: %d samples cannot support a p99", n)
			}
		}
	}
	cells := float64(b.cells)
	m["campaign.inproc_cells_per_s"] = cells / inproc.Seconds()
	m["campsvc.cells_per_s"] = cells / median(walls)
	m["campsvc.overhead_frac"] = 1 - m["campsvc.cells_per_s"]/m["campaign.inproc_cells_per_s"]
	m["campsvc.lease_rtt_us_p50"] = percentile(leases, 50) / 1e3
	m["campsvc.lease_rtt_us_p99"] = percentile(leases, 99) / 1e3
	m["campsvc.complete_rtt_us_p50"] = percentile(completes, 50) / 1e3
	m["campsvc.complete_rtt_us_p99"] = percentile(completes, 99) / 1e3
	m["campsvc.exec_ms_p50"] = percentile(execs, 50) / 1e6
	m["campsvc.empty_grants"] = empty / float64(size.campaigns)
	m["campsvc.drain_ms"] = drain
	return r, nil
}
