package explore

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"mtbench/internal/core"
	"mtbench/internal/repository"
)

var smallPrograms = []string{"account", "statmax", "inversion", "lostnotify", "philosophers"}

// serialGolden pins the serial engine's exact behaviour as measured on
// the pre-parallelization implementation (same DFS, same sleep sets).
// Workers: 1 must stay byte-identical to it forever: any change to
// schedule counts, outcome histograms, first-bug indices or pruning
// counters here is a change to the search semantics and must be
// deliberate. The DPOR rows (no state cache) pin the reduction layer's
// counters the same way; none of these modes coasts, so every Stats
// field is a pure function of the search.
var serialGolden = []struct {
	program   string
	sleepSets bool
	dpor      bool
	schedules int
	firstBug  int
	bugs      int
	outcomes  map[string]int
	stats     Stats
}{
	{"account", true, false, 1710, 27, 1, map[string]int{"fail:": 612, "pass:": 1098},
		Stats{SleepPruned: 250, ReplayedSteps: 1709, NovelSteps: 7374, CheckpointHits: 1709, CheckpointMisses: 1, RestoredSteps: 17019, TotalSteps: 26102}},
	{"account", false, false, 2728, 36, 1, nil,
		Stats{ReplayedSteps: 2727, NovelSteps: 11149, CheckpointHits: 2727, CheckpointMisses: 1, RestoredSteps: 27672, TotalSteps: 41548}},
	{"account", false, true, 1661, 23, 1, map[string]int{"fail:": 612, "pass:": 1049},
		Stats{SleepPruned: 240, PORPruned: 19, Backtracks: 1900, ReplayedSteps: 1660, NovelSteps: 7140, CheckpointHits: 1660, CheckpointMisses: 1, RestoredSteps: 16537, TotalSteps: 25337}},
	{"statmax", true, false, 456, 11, 1, map[string]int{"fail:": 48, "pass:": 408},
		Stats{SleepPruned: 11, ReplayedSteps: 455, NovelSteps: 1821, CheckpointHits: 455, CheckpointMisses: 1, RestoredSteps: 3693, TotalSteps: 5969}},
	{"statmax", false, false, 515, 11, 1, nil,
		Stats{ReplayedSteps: 514, NovelSteps: 2043, CheckpointHits: 514, CheckpointMisses: 1, RestoredSteps: 4181, TotalSteps: 6738}},
	{"statmax", false, true, 456, 11, 1, map[string]int{"fail:": 48, "pass:": 408},
		Stats{SleepPruned: 11, Backtracks: 466, ReplayedSteps: 455, NovelSteps: 1821, CheckpointHits: 455, CheckpointMisses: 1, RestoredSteps: 3693, TotalSteps: 5969}},
	{"inversion", true, false, 5452, 97, 1, map[string]int{"deadlock:": 89, "pass:": 5363},
		Stats{SleepPruned: 237, ReplayedSteps: 5451, NovelSteps: 19051, CheckpointHits: 5451, CheckpointMisses: 1, RestoredSteps: 69035, TotalSteps: 93537}},
	{"inversion", false, false, 7140, 127, 1, nil,
		Stats{ReplayedSteps: 7139, NovelSteps: 24214, CheckpointHits: 7139, CheckpointMisses: 1, RestoredSteps: 90364, TotalSteps: 121717}},
	{"inversion", false, true, 5327, 92, 1, map[string]int{"deadlock:": 55, "pass:": 5272},
		Stats{SleepPruned: 222, PORPruned: 65, Backtracks: 5548, ReplayedSteps: 5326, NovelSteps: 18621, CheckpointHits: 5326, CheckpointMisses: 1, RestoredSteps: 67729, TotalSteps: 91676}},
	{"lostnotify", true, false, 32, -1, 0, map[string]int{"pass:": 32},
		Stats{ReplayedSteps: 31, NovelSteps: 200, CheckpointHits: 31, CheckpointMisses: 1, RestoredSteps: 321, TotalSteps: 552}},
	{"lostnotify", false, false, 32, -1, 0, nil,
		Stats{ReplayedSteps: 31, NovelSteps: 200, CheckpointHits: 31, CheckpointMisses: 1, RestoredSteps: 321, TotalSteps: 552}},
	{"lostnotify", false, true, 32, -1, 0, map[string]int{"pass:": 32},
		Stats{Backtracks: 31, ReplayedSteps: 31, NovelSteps: 200, CheckpointHits: 31, CheckpointMisses: 1, RestoredSteps: 321, TotalSteps: 552}},
	{"philosophers", true, false, 13305, 209, 1, map[string]int{"deadlock:": 89, "pass:": 13216},
		Stats{SleepPruned: 449, ReplayedSteps: 13304, NovelSteps: 76416, CheckpointHits: 13304, CheckpointMisses: 1, RestoredSteps: 194924, TotalSteps: 284644}},
	{"philosophers", false, false, 20469, 335, 1, nil,
		Stats{ReplayedSteps: 20468, NovelSteps: 115728, CheckpointHits: 20468, CheckpointMisses: 1, RestoredSteps: 300832, TotalSteps: 437028}},
	{"philosophers", false, true, 13126, 203, 1, map[string]int{"deadlock:": 55, "pass:": 13071},
		Stats{SleepPruned: 428, PORPruned: 74, Backtracks: 13553, ReplayedSteps: 13125, NovelSteps: 75392, CheckpointHits: 13125, CheckpointMisses: 1, RestoredSteps: 192776, TotalSteps: 281293}},
}

// TestSerialGolden locks Workers: 1 to the pre-refactor serial engine:
// identical schedule counts, outcome histograms, bug counts, first-bug
// indices and Stats on every repository program.
//
// (The deadlock programs historically reported the same deadlock twice
// under two rotations of the wait-for cycle, because the cycle
// description depended on map iteration order; with the canonical
// cycle fix the duplicate collapses, which is why inversion and
// philosophers pin bugs == 1.)
func TestSerialGolden(t *testing.T) {
	for _, g := range serialGolden {
		prog, err := repository.Get(g.program)
		if err != nil {
			t.Fatal(err)
		}
		body := prog.BodyWith(prog.Explorable)
		res := Explore(Options{MaxSchedules: 200000, SleepSets: g.sleepSets, DPOR: g.dpor, Workers: 1}, body)
		label := fmt.Sprintf("%s (sleepsets=%v dpor=%v)", g.program, g.sleepSets, g.dpor)
		if res.Err != nil {
			t.Fatalf("%s: %v", label, res.Err)
		}
		if !res.Exhausted {
			t.Fatalf("%s: not exhausted after %d schedules", label, res.Schedules)
		}
		if res.Schedules != g.schedules {
			t.Errorf("%s: schedules = %d, golden %d", label, res.Schedules, g.schedules)
		}
		if got := res.FirstBugIndex(); got != g.firstBug {
			t.Errorf("%s: first bug at %d, golden %d", label, got, g.firstBug)
		}
		if len(res.Bugs) != g.bugs {
			t.Errorf("%s: %d distinct bugs, golden %d", label, len(res.Bugs), g.bugs)
		}
		if g.outcomes != nil && !reflect.DeepEqual(res.Outcomes, g.outcomes) {
			t.Errorf("%s: outcomes = %v, golden %v", label, res.Outcomes, g.outcomes)
		}
		if res.Stats != g.stats {
			t.Errorf("%s: stats = %+v, golden %+v", label, res.Stats, g.stats)
		}
	}
}

// bugKeys returns the deduplicated bug signatures of a result, sorted.
func bugKeys(res *Result) []string {
	keys := make([]string, 0, len(res.Bugs))
	for _, b := range res.Bugs {
		keys = append(keys, core.BugSignature(b.Result))
	}
	sort.Strings(keys)
	return keys
}

// TestWorkersFindSameBugs is the parallel-correctness contract: on
// every small repository program, Workers: 8 must find exactly the
// deduplicated bug set that Workers: 1 finds, and — without sleep sets,
// where the shards partition the tree exactly — execute the identical
// number of schedules.
func TestWorkersFindSameBugs(t *testing.T) {
	for _, name := range smallPrograms {
		prog, err := repository.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		body := prog.BodyWith(prog.Explorable)

		serial := Explore(Options{MaxSchedules: 200000, Workers: 1}, body)
		parallel := Explore(Options{MaxSchedules: 200000, Workers: 8}, body)
		if serial.Err != nil || parallel.Err != nil {
			t.Fatalf("%s: serial err=%v parallel err=%v", name, serial.Err, parallel.Err)
		}
		if !serial.Exhausted || !parallel.Exhausted {
			t.Fatalf("%s: exhausted serial=%v parallel=%v", name, serial.Exhausted, parallel.Exhausted)
		}
		if sk, pk := bugKeys(serial), bugKeys(parallel); !reflect.DeepEqual(sk, pk) {
			t.Errorf("%s: bug sets differ\n  serial:   %v\n  parallel: %v", name, sk, pk)
		}
		// Without sleep sets every shard explores a disjoint part of
		// the same tree, so the total is exact.
		if serial.Schedules != parallel.Schedules {
			t.Errorf("%s: schedules serial=%d parallel=%d (must partition exactly)", name, serial.Schedules, parallel.Schedules)
		}
		// Outcome histograms over the whole tree are worker-invariant.
		if !reflect.DeepEqual(serial.Outcomes, parallel.Outcomes) {
			t.Errorf("%s: outcomes serial=%v parallel=%v", name, serial.Outcomes, parallel.Outcomes)
		}
	}
}

// TestWorkersSleepSetsSameBugs: with sleep-set pruning the shard
// boundaries lose some pruning (never soundness), so schedule counts
// may differ — but the deduplicated bug set must not.
func TestWorkersSleepSetsSameBugs(t *testing.T) {
	for _, name := range smallPrograms {
		prog, err := repository.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		body := prog.BodyWith(prog.Explorable)

		serial := Explore(Options{MaxSchedules: 200000, SleepSets: true, Workers: 1}, body)
		parallel := Explore(Options{MaxSchedules: 200000, SleepSets: true, Workers: 8}, body)
		if serial.Err != nil || parallel.Err != nil {
			t.Fatalf("%s: serial err=%v parallel err=%v", name, serial.Err, parallel.Err)
		}
		if !serial.Exhausted || !parallel.Exhausted {
			t.Fatalf("%s: exhausted serial=%v parallel=%v", name, serial.Exhausted, parallel.Exhausted)
		}
		if sk, pk := bugKeys(serial), bugKeys(parallel); !reflect.DeepEqual(sk, pk) {
			t.Errorf("%s: bug sets differ\n  serial:   %v\n  parallel: %v", name, sk, pk)
		}
		if parallel.Schedules > serial.Schedules*4 {
			t.Errorf("%s: parallel sleep-set search exploded: %d vs serial %d", name, parallel.Schedules, serial.Schedules)
		}
	}
}

// TestWorkersPreemptionBound: bound accounting must be identical across
// shard boundaries (a donated work item carries its root's preemption
// count, preempted-thread set and charged-object set), so bounded
// trees partition exactly too — for the preemption bound and for
// Bindal et al.'s variable and thread bounds alike.
func TestWorkersPreemptionBound(t *testing.T) {
	type bounded struct {
		name string
		set  func(o *Options, bound int)
	}
	pre := bounded{"preemption", func(o *Options, b int) { o.PreemptionBound = Bound(b) }}
	vb := bounded{"variable", func(o *Options, b int) { o.VariableBound = Bound(b) }}
	tb := bounded{"thread", func(o *Options, b int) { o.ThreadBound = Bound(b) }}
	cases := []struct {
		prog  string
		body  func(core.T)
		kinds []bounded
	}{
		{"lostUpdate", lostUpdate, []bounded{pre}},
		{"philosophers", smallBody(t, "philosophers"), []bounded{vb, tb}},
		{"account", smallBody(t, "account"), []bounded{vb, tb}},
	}
	for _, tc := range cases {
		for _, k := range tc.kinds {
			for _, bound := range []int{0, 1, 2} {
				opts := Options{MaxSchedules: 200000, Workers: 1}
				k.set(&opts, bound)
				serial := Explore(opts, tc.body)
				opts.Workers = 8
				parallel := Explore(opts, tc.body)
				if serial.Err != nil || parallel.Err != nil {
					t.Fatalf("%s %s bound %d: serial err=%v parallel err=%v", tc.prog, k.name, bound, serial.Err, parallel.Err)
				}
				if !serial.Exhausted || !parallel.Exhausted {
					t.Errorf("%s %s bound %d: exhausted serial=%v parallel=%v", tc.prog, k.name, bound, serial.Exhausted, parallel.Exhausted)
				}
				if serial.Schedules != parallel.Schedules {
					t.Errorf("%s %s bound %d: schedules serial=%d parallel=%d", tc.prog, k.name, bound, serial.Schedules, parallel.Schedules)
				}
				if sk, pk := bugKeys(serial), bugKeys(parallel); !reflect.DeepEqual(sk, pk) {
					t.Errorf("%s %s bound %d: bug sets differ: %v vs %v", tc.prog, k.name, bound, sk, pk)
				}
			}
		}
	}
}

// smallBody returns a repository program's body at its explorable size.
func smallBody(t *testing.T, name string) func(core.T) {
	t.Helper()
	prog, err := repository.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return prog.BodyWith(prog.Explorable)
}

// TestWorkersBudget: MaxSchedules is a hard global budget across
// workers, and exceeding it clears Exhausted.
func TestWorkersBudget(t *testing.T) {
	prog, err := repository.Get("philosophers")
	if err != nil {
		t.Fatal(err)
	}
	body := prog.BodyWith(prog.Explorable)
	res := Explore(Options{MaxSchedules: 100, Workers: 8}, body)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Schedules > 100 {
		t.Fatalf("budget overrun: %d schedules with MaxSchedules=100", res.Schedules)
	}
	if res.Exhausted {
		t.Fatal("truncated search claimed exhaustion")
	}
}

// TestWorkersStopAtFirstBug: the stop is global — some worker finds a
// bug, everyone winds down, and the winning schedule replays.
func TestWorkersStopAtFirstBug(t *testing.T) {
	prog, err := repository.Get("philosophers")
	if err != nil {
		t.Fatal(err)
	}
	body := prog.BodyWith(prog.Explorable)
	res := Explore(Options{MaxSchedules: 200000, StopAtFirstBug: true, Workers: 8}, body)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Bugs) == 0 {
		t.Fatal("parallel first-bug search found nothing")
	}
	if res.Exhausted {
		t.Fatal("first-bug stop claimed exhaustion")
	}
	if res.FirstBugIndex() < 1 {
		t.Fatalf("first bug index = %d, want >= 1", res.FirstBugIndex())
	}
}

// TestWorkersDeterministicSerial: Workers: 1 is bit-for-bit
// reproducible run over run (bug indices, schedules, outcomes).
func TestWorkersDeterministicSerial(t *testing.T) {
	for _, name := range smallPrograms {
		prog, err := repository.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		body := prog.BodyWith(prog.Explorable)
		a := Explore(Options{MaxSchedules: 200000, SleepSets: true, Workers: 1}, body)
		b := Explore(Options{MaxSchedules: 200000, SleepSets: true, Workers: 1}, body)
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%s: errs %v %v", name, a.Err, b.Err)
		}
		if a.Schedules != b.Schedules || !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
			t.Errorf("%s: serial engine not deterministic: %d/%v vs %d/%v", name, a.Schedules, a.Outcomes, b.Schedules, b.Outcomes)
		}
		if len(a.Bugs) != len(b.Bugs) {
			t.Fatalf("%s: bug counts differ: %d vs %d", name, len(a.Bugs), len(b.Bugs))
		}
		for i := range a.Bugs {
			if a.Bugs[i].Index != b.Bugs[i].Index || core.BugSignature(a.Bugs[i].Result) != core.BugSignature(b.Bugs[i].Result) {
				t.Errorf("%s: bug %d differs: #%d %q vs #%d %q", name, i,
					a.Bugs[i].Index, core.BugSignature(a.Bugs[i].Result), b.Bugs[i].Index, core.BugSignature(b.Bugs[i].Result))
			}
		}
	}
}

// TestFirstBugIndexNoBug pins the documented -1 sentinel.
func TestFirstBugIndexNoBug(t *testing.T) {
	res := &Result{}
	if got := res.FirstBugIndex(); got != -1 {
		t.Fatalf("FirstBugIndex() on empty result = %d, want -1", got)
	}
}

// TestExploreContextCancels: cancelling Options.Context winds a
// parallel search down like a first-bug stop — promptly, unexhausted,
// far short of its budget.
func TestExploreContextCancels(t *testing.T) {
	prog, err := repository.Get("philosophers")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	const budget = 1_000_000
	start := time.Now()
	res := Explore(Options{MaxSchedules: budget, Workers: 4, Context: ctx}, prog.BodyWith(nil))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled search took %v to return", elapsed)
	}
	if res.Exhausted || res.Schedules >= budget {
		t.Fatalf("cancelled search: exhausted=%v after %d schedules", res.Exhausted, res.Schedules)
	}
}

// exhaustShort is the reduced-search worker-scaling set: the four
// short-trace programs whose DPOR + state-cache exhaustion the
// benchmark's exhaust-short workload times at 1 and 2 workers.
var exhaustShort = []struct {
	name   string
	params repository.Params
}{
	{"philosophers", repository.Params{"philosophers": 3, "rounds": 1}},
	{"account", repository.Params{"depositors": 3, "deposits": 1}},
	{"account", repository.Params{"depositors": 2, "deposits": 2}},
	{"statmax", repository.Params{"reporters": 3}},
}

// TestParallelReducedRatio pins how much extra work parallel reduced
// search does. Donation expands the donor's path and two workers can
// explore one state at the same time before either publishes it, so a
// DPOR + state-cache search at 2 or 4 workers runs more schedules than
// the serial one — but with one state cache per search, a subtree any
// worker finished cuts its equivalents on every worker, and the summed
// count over the exhaust-short programs stays within 1.6× serial (the
// median of three runs; private per-worker caches, which the bound
// rules out, read 1.8–1.9× at 2 workers and 3.0–3.6× at 4). Every run
// must exhaust with the serial bug set.
func TestParallelReducedRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated reduced exhaustion in -short mode")
	}
	runs := 3
	if raceEnabled {
		runs = 1
	}
	exhaust := func(i, workers int) *Result {
		p := exhaustShort[i]
		prog, err := repository.Get(p.name)
		if err != nil {
			t.Fatal(err)
		}
		res := Explore(Options{
			MaxSchedules: 200000, Workers: workers, DPOR: true, StateCache: true,
		}, prog.BodyWith(p.params))
		if res.Err != nil || !res.Exhausted {
			t.Fatalf("%s%v workers=%d: err=%v exhausted=%v", p.name, p.params, workers, res.Err, res.Exhausted)
		}
		return res
	}
	serialBugs := make([][]string, len(exhaustShort))
	serial := 0
	for i := range exhaustShort {
		res := exhaust(i, 1)
		serialBugs[i] = bugKeys(res)
		serial += res.Schedules
	}
	for _, workers := range []int{2, 4} {
		sums := make([]int, runs)
		for r := range sums {
			for i, p := range exhaustShort {
				res := exhaust(i, workers)
				if got := bugKeys(res); !reflect.DeepEqual(got, serialBugs[i]) {
					t.Errorf("%s%v workers=%d: bug sets differ\n  serial:   %v\n  parallel: %v",
						p.name, p.params, workers, serialBugs[i], got)
				}
				sums[r] += res.Schedules
			}
		}
		sort.Ints(sums)
		median := sums[len(sums)/2]
		t.Logf("workers=%d: %d schedules (runs %v) vs serial %d: %.2fx", workers, median, sums, serial, float64(median)/float64(serial))
		if median*10 > serial*16 {
			t.Errorf("workers=%d: reduced search ran %d schedules, %.2fx the serial %d (limit 1.6x)",
				workers, median, float64(median)/float64(serial), serial)
		}
	}
}
