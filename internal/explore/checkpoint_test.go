package explore

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"mtbench/internal/core"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// searchModes is the mode matrix the positioning, conservation and
// goroutine-leak sweeps drive: plain DFS, each pruning and bound alone,
// timing branches, and the state cache with and without DPOR. Every
// mode positions its runs; only the state-cache modes restore a hasher.
var searchModes = []struct {
	name string
	set  func(*Options)
}{
	{"plain", func(o *Options) {}},
	{"sleep", func(o *Options) { o.SleepSets = true }},
	{"dpor", func(o *Options) { o.DPOR = true }},
	{"pb2", func(o *Options) { o.PreemptionBound = Bound(2) }},
	{"vb1", func(o *Options) { o.VariableBound = Bound(1) }},
	{"timeouts", func(o *Options) { o.ExploreTimeouts = true }},
	{"cache", func(o *Options) { o.StateCache = true }},
	{"dpor+cache", func(o *Options) { o.DPOR = true; o.StateCache = true }},
	{"dpor+cache+timeouts", func(o *Options) {
		o.DPOR = true
		o.StateCache = true
		o.ExploreTimeouts = true
	}},
}

// TestCheckpointedEquivalence pins the frontier-positioning contract
// over the whole program repository in every search mode. Serially the
// contract is exact: the positioned search must visit exactly the tree
// the root-replay reference visits — same schedule count, same
// exhaustion, same deduplicated bug set with the same indices and bug
// schedules, same outcome histogram, same novel-step total — because
// positioning only changes how a run reaches its decision point, never
// which decisions the DFS enumerates or how a run ends. The one
// intended serial difference is the replay tax: the positioned search
// must never replay more steps than root replay, and on the benchmark
// gate program it must replay strictly fewer while reporting
// fast-forwards in the stats.
//
// With Workers: 8 the shards and the shared state cache see states in
// an order that depends on donation timing — which positioning shifts,
// exactly as root-replay timing already varies — so schedule counts are
// not comparable across modes (TestReducedEquivalence pins the parallel
// bound against the full tree instead). The parallel contract is the
// soundness half: when the search exhausts, it finds exactly the serial
// bug set, and its outcome histogram accounts for every schedule.
//
// At every worker count the two conservation laws must hold: every
// schedule is positioned exactly once (hits + misses == schedules) and
// every scheduler step is attributed exactly once (replayed + novel +
// restored == total).
func TestCheckpointedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repository exploration sweep in -short mode")
	}
	// The default reduced search gets the budget that exhausts most of
	// the repository; the other modes, whose trees are far larger, get
	// enough to position thousands of runs per program.
	budget, modeBudget := 30000, 2000
	if raceEnabled {
		budget, modeBudget = 1000, 100
	}
	for _, mode := range searchModes {
		for _, prog := range repository.All() {
			body := prog.BodyWith(prog.Explorable)
			opts := Options{MaxSchedules: modeBudget, MaxSteps: 5000, Workers: 1}
			mode.set(&opts)
			if mode.name == "dpor+cache" {
				opts.MaxSchedules = budget
			}
			base := exploreRootReplay(opts, body)
			if base.Err != nil {
				t.Fatalf("%s/%s: %v", prog.Name, mode.name, base.Err)
			}
			baseBugs := bugKeys(base)
			for _, workers := range []int{1, 8} {
				opts.Workers = workers
				ck := Explore(opts, body)
				label := fmt.Sprintf("%s/%s/workers=%d", prog.Name, mode.name, workers)
				if ck.Err != nil {
					t.Fatalf("%s: %v", label, ck.Err)
				}
				total := 0
				for _, n := range ck.Outcomes {
					total += n
				}
				if total != ck.Schedules {
					t.Errorf("%s: outcome histogram counts %d runs over %d schedules", label, total, ck.Schedules)
				}
				assertConservation(t, label, ck)
				if workers > 1 {
					if base.Exhausted && ck.Exhausted {
						if got := bugKeys(ck); !reflect.DeepEqual(got, baseBugs) {
							t.Errorf("%s: bug sets differ\n  root replay: %v\n  positioned:  %v", label, baseBugs, got)
						}
					}
					continue
				}
				if ck.Schedules != base.Schedules || ck.Exhausted != base.Exhausted {
					t.Errorf("%s: tree shape changed: %d schedules (exhausted=%v) vs root replay %d (%v)",
						label, ck.Schedules, ck.Exhausted, base.Schedules, base.Exhausted)
				}
				if got, want := bugRecords(ck), bugRecords(base); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: bugs differ\n  root replay: %v\n  positioned:  %v", label, want, got)
				}
				if !reflect.DeepEqual(ck.Outcomes, base.Outcomes) {
					t.Errorf("%s: outcome histograms differ\n  root replay: %v\n  positioned:  %v", label, base.Outcomes, ck.Outcomes)
				}
				if ck.Stats.ReplayedSteps > base.Stats.ReplayedSteps {
					t.Errorf("%s: positioning raised the replay tax: %d vs root replay %d",
						label, ck.Stats.ReplayedSteps, base.Stats.ReplayedSteps)
				}
				if ck.Stats.NovelSteps != base.Stats.NovelSteps {
					t.Errorf("%s: novel steps differ: %d vs root replay %d",
						label, ck.Stats.NovelSteps, base.Stats.NovelSteps)
				}
				if prog.Name == "philosophers" {
					if ck.Stats.ReplayedSteps >= base.Stats.ReplayedSteps {
						t.Errorf("%s: expected strictly fewer replayed steps than root replay: %d vs %d",
							label, ck.Stats.ReplayedSteps, base.Stats.ReplayedSteps)
					}
					if ck.Stats.CheckpointHits == 0 {
						t.Errorf("%s: no fast-forwards recorded; stats: %+v", label, ck.Stats)
					}
				}
			}
		}
	}
}

// bugRecords renders a result's bug log as index, signature and
// schedule, in log order.
func bugRecords(res *Result) []string {
	out := make([]string, 0, len(res.Bugs))
	for _, b := range res.Bugs {
		out = append(out, fmt.Sprintf("#%d %s %v", b.Index, core.BugSignature(b.Result), b.Schedule))
	}
	return out
}

// exploreRootReplay runs the search with positioning off, so every
// schedule replays from the root: the reference
// TestCheckpointedEquivalence compares every mode against.
func exploreRootReplay(opts Options, body func(core.T)) *Result {
	c := newCoordinator(opts, body)
	c.snapCap = 0
	return c.run()
}

// TestSnapshotCap pins the hasher-snapshot cap on 10,000-step paths: a
// DPOR + state-cache search of adhocsync never holds more than
// maxLiveSnaps snapshots, the ones it holds are the deepest, and every
// run after the first is positioned from one. A kit's pool allocates a
// snapshot only when none is free, so the snapshots it ever allocated —
// the ones recycled into the pool plus the ones still on the final
// path — are the high-water mark of live snapshots.
func TestSnapshotCap(t *testing.T) {
	prog, err := repository.Get("adhocsync")
	if err != nil {
		t.Fatal(err)
	}
	const schedules = 40
	c := newCoordinator(Options{
		MaxSchedules: schedules, MaxSteps: 10000, Workers: 1,
		DPOR: true, StateCache: true,
	}, prog.BodyWith(nil))
	kit := &workerKit{runner: sched.NewRunner(), pool: newNodePool()}
	defer kit.runner.Close()
	e := c.exploreItem(kit, kit.reductionFor(c.opts, newStateCache()), &workItem{})
	if e.err != nil {
		t.Fatal(e.err)
	}
	var held []int
	for i, n := range e.path {
		if n.hsnap != nil {
			held = append(held, i)
		}
	}
	if !slices.Equal(held, e.holders) {
		t.Errorf("path nodes %v hold a snapshot, but the holder queue lists %v", held, e.holders)
	}
	if len(held) == 0 {
		t.Fatalf("no snapshot on a %d-node path", len(e.path))
	}
	if peak := len(held) + len(kit.pool.snaps); peak > maxLiveSnaps {
		t.Errorf("%d hasher snapshots allocated, cap %d", peak, maxLiveSnaps)
	}
	// The live snapshots are the deepest: below the shallowest holder,
	// every node that took a snapshot at creation still holds it.
	for i := held[0]; i < len(e.path); i++ {
		if n := e.path[i]; len(n.options) > 1 && !n.cut && n.hsnap == nil {
			t.Errorf("node %d (below the shallowest holder %d) lost its snapshot", i, held[0])
			break
		}
	}
	if got := int(c.executed.Load()); got != schedules {
		t.Fatalf("%d schedules executed, want %d", got, schedules)
	}
	if e.stats.CheckpointHits != schedules-1 {
		t.Errorf("checkpoint hits %d over %d schedules, want %d; stats: %+v",
			e.stats.CheckpointHits, schedules, schedules-1, e.stats)
	}
}

// assertConservation checks the two positioning conservation laws on
// one exploration result: every schedule positioned exactly once, and
// every scheduler step attributed exactly once.
func assertConservation(t *testing.T, label string, res *Result) {
	t.Helper()
	if got := res.Stats.CheckpointHits + res.Stats.CheckpointMisses; got != res.Schedules {
		t.Errorf("%s: positioning law broken: hits %d + misses %d = %d over %d schedules",
			label, res.Stats.CheckpointHits, res.Stats.CheckpointMisses, got, res.Schedules)
	}
	st := res.Stats
	if got := st.ReplayedSteps + st.NovelSteps + st.RestoredSteps + st.CoastedSteps; got != st.TotalSteps {
		t.Errorf("%s: step law broken: replayed %d + novel %d + restored %d + coasted %d = %d, total %d",
			label, st.ReplayedSteps, st.NovelSteps, st.RestoredSteps, st.CoastedSteps, got, st.TotalSteps)
	}
}

// TestCheckpointConservation pins the two conservation laws repo-wide
// across every search mode: every schedule is positioned exactly once
// (checkpoint_hits + checkpoint_misses == schedules), and every
// scheduler step is attributed exactly once (replayed + novel +
// restored + coasted == total). The laws are what make the counters trustworthy:
// a counter that can drift from the ground truth silently is worse than
// no counter. Without the state cache a serial search positions every
// run after its first, so it has exactly one miss.
func TestCheckpointConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repository exploration sweep in -short mode")
	}
	budget := 2000
	if raceEnabled {
		budget = 100
	}
	for _, prog := range repository.All() {
		body := prog.BodyWith(prog.Explorable)
		for _, mode := range searchModes {
			for _, workers := range []int{1, 8} {
				opts := Options{MaxSchedules: budget, MaxSteps: 5000, Workers: workers}
				mode.set(&opts)
				res := Explore(opts, body)
				label := fmt.Sprintf("%s/%s/workers=%d", prog.Name, mode.name, workers)
				if res.Err != nil {
					t.Fatalf("%s: %v", label, res.Err)
				}
				assertConservation(t, label, res)
				if workers == 1 && !opts.StateCache && res.Stats.CheckpointMisses != 1 {
					t.Errorf("%s: %d checkpoint misses over %d schedules; want only the first run's",
						label, res.Stats.CheckpointMisses, res.Schedules)
				}
			}
		}
	}
}

// TestExploreNoGoroutineLeak sweeps every explore mode over the whole
// repository twice and checks the process goroutine count returns to
// its post-warmup baseline. The first sweep is warmup: worker kits,
// pooled runners and their idle virtual threads are retained by
// design (that is what makes repeated exploration cheap), and the
// retained population reaches steady state once every program has run
// in every mode. The second sweep must then add nothing: every run,
// fast-forwarded or replayed from the root, must return its threads to
// its runner's pool rather than leaking them.
func TestExploreNoGoroutineLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repository exploration sweep in -short mode")
	}
	budget := 300
	if raceEnabled {
		budget = 100
	}
	sweep := func() {
		for _, prog := range repository.All() {
			body := prog.BodyWith(prog.Explorable)
			for _, mode := range searchModes {
				for _, workers := range []int{1, 4} {
					opts := Options{MaxSchedules: budget, MaxSteps: 5000, Workers: workers}
					mode.set(&opts)
					if res := Explore(opts, body); res.Err != nil {
						t.Fatalf("%s/%s/workers=%d: %v", prog.Name, mode.name, workers, res.Err)
					}
				}
			}
		}
	}

	sweep()
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	sweep()

	// Worker goroutines exit asynchronously after Explore returns;
	// give them a bounded moment to drain before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked across explore sweep: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestReducedAllocs is the allocation gate on the reduced hot path:
// serial DPOR + state-cache exploration of the benchmark gate program
// must stay under a hard per-schedule allocation ceiling. The program
// body itself owns ~13 allocations per run (closures and result
// slices the repository programs legitimately build), so the ceiling
// of 100 leaves room for growth while still catching any regression
// that reintroduces per-run construction of runners, caches, node
// records or event machinery (each of which costs tens to hundreds of
// allocations per schedule on its own).
func TestReducedAllocs(t *testing.T) {
	body, err := repository.Get("philosophers")
	if err != nil {
		t.Fatal(err)
	}
	prog := body.BodyWith(body.Explorable)
	opts := Options{MaxSchedules: 30000, MaxSteps: 5000, Workers: 1, DPOR: true, StateCache: true}

	// Warm the kit pool: the first exploration constructs the runner,
	// caches and node pool that later explorations reuse.
	warm := Explore(opts, prog)
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if warm.Schedules == 0 {
		t.Fatal("no schedules executed")
	}

	schedules := warm.Schedules
	allocs := testing.AllocsPerRun(5, func() {
		res := Explore(opts, prog)
		if res.Schedules != schedules {
			t.Fatalf("schedule count drifted: %d vs %d", res.Schedules, schedules)
		}
	})
	perSchedule := allocs / float64(schedules)
	t.Logf("reduced explore: %.0f allocs over %d schedules = %.1f allocs/schedule", allocs, schedules, perSchedule)
	if perSchedule > 100 {
		t.Errorf("allocation gate: %.1f allocs/schedule > 100 (total %.0f over %d schedules)", perSchedule, allocs, schedules)
	}
}

// runEventCounter is a RunObserver that checks, run by run, that it
// saw every event the run executed.
type runEventCounter struct {
	events, runs, short int
}

func (c *runEventCounter) OnEvent(*core.Event)   { c.events++ }
func (c *runEventCounter) RunStart(core.RunInfo) { c.events = 0 }
func (c *runEventCounter) RunEnd(res *core.Result) {
	c.runs++
	if int64(c.events) != res.Events {
		c.short++
	}
}

// TestListenersSeeWholeRuns pins Options.Listeners' promise in every
// search mode: a search with listeners positions by root replay, so a
// listener receives each run's every event, never a fast-forwarded
// run's tail only.
func TestListenersSeeWholeRuns(t *testing.T) {
	for _, name := range []string{"philosophers", "account"} {
		prog, err := repository.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		body := prog.BodyWith(prog.Explorable)
		for _, mode := range searchModes {
			c := &runEventCounter{}
			opts := Options{MaxSchedules: 300, MaxSteps: 5000, Workers: 1, Listeners: []core.Listener{c}}
			mode.set(&opts)
			res := Explore(opts, body)
			label := name + "/" + mode.name
			if res.Err != nil {
				t.Fatalf("%s: %v", label, res.Err)
			}
			if c.runs != res.Schedules {
				t.Errorf("%s: listener saw %d runs over %d schedules", label, c.runs, res.Schedules)
			}
			if c.short != 0 {
				t.Errorf("%s: listener missed events on %d of %d runs", label, c.short, c.runs)
			}
			if res.Stats.CheckpointHits != 0 {
				t.Errorf("%s: %d runs fast-forwarded past the listener", label, res.Stats.CheckpointHits)
			}
		}
	}
}

// TestPositioningDetectsNondeterminism runs a body that behaves
// differently from run to run — every third run one thread yields once
// more — and requires every mode to report it, positioned or replaying
// from the root: a fast-forward must not carry a run past a divergence
// that root replay would have caught.
func TestPositioningDetectsNondeterminism(t *testing.T) {
	flaky := func() func(core.T) {
		runs := 0
		return func(ct core.T) {
			runs++
			extra := runs%3 == 0
			x := ct.NewInt("x", 0)
			h1 := ct.Go("a", func(wt core.T) {
				if extra {
					wt.Yield()
				}
				x.Store(wt, x.Load(wt)+1)
			})
			h2 := ct.Go("b", func(wt core.T) {
				x.Store(wt, x.Load(wt)+1)
			})
			h1.Join(ct)
			h2.Join(ct)
		}
	}
	for _, mode := range searchModes {
		opts := Options{MaxSchedules: 1000, Workers: 1}
		mode.set(&opts)
		if res := Explore(opts, flaky()); res.Err == nil {
			t.Errorf("%s: positioned search accepted a nondeterministic body (%d schedules)", mode.name, res.Schedules)
		}
		if res := exploreRootReplay(opts, flaky()); res.Err == nil {
			t.Errorf("%s: root-replay search accepted a nondeterministic body (%d schedules)", mode.name, res.Schedules)
		}
	}
}
