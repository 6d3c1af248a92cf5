package explore

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mtbench/internal/core"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// TestCheckpointedEquivalence pins the frontier-positioning contract
// over the whole program repository. Serially the contract is exact:
// the default reduced search (DPOR + state cache, which positions runs
// from branch snapshots) must visit exactly the tree the root-replay
// reference visits — same schedule count, same exhaustion, same
// deduplicated bug set, same outcome histogram, same novel-step total
// — because positioning only changes how a run reaches its decision
// point, never which decisions the DFS enumerates or how a run ends.
// The one intended serial difference is the replay tax: the snapshot
// search must never replay more steps than root replay, and on the
// benchmark gate program it must replay strictly fewer while
// reporting snapshot fast-forwards in the stats.
//
// With Workers: 8 the shared state cache sees states in an order that
// depends on shard-donation timing and on which worker publishes first
// — which positioning shifts, exactly as root-replay timing already
// varies — so schedule counts are not comparable across modes
// (TestReducedEquivalence pins the parallel bound against the full
// tree instead). The parallel snapshot contract is the soundness half:
// when the search exhausts, it finds exactly the serial bug set, and
// its outcome histogram accounts for every schedule.
//
// At every worker count the two conservation laws must hold: every
// schedule is positioned exactly once (hits + misses == schedules) and
// every scheduler step is attributed exactly once (replayed + novel +
// restored == total).
func TestCheckpointedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repository exploration sweep in -short mode")
	}
	budget, maxSteps := 30000, int64(5000)
	if raceEnabled {
		budget = 3000
	}
	for _, prog := range repository.All() {
		body := prog.BodyWith(smallParams[prog.Name])
		base := exploreRootReplay(Options{
			MaxSchedules: budget, MaxSteps: maxSteps, Workers: 1,
			DPOR: true, StateCache: true,
		}, body)
		if base.Err != nil {
			t.Fatalf("%s: %v", prog.Name, base.Err)
		}
		baseBugs := bugKeys(base)
		for _, workers := range []int{1, 8} {
			ck := Explore(Options{
				MaxSchedules: budget, MaxSteps: maxSteps, Workers: workers,
				DPOR: true, StateCache: true,
			}, body)
			label := fmt.Sprintf("%s/snapshots/workers=%d", prog.Name, workers)
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
						t.Errorf("%s: bug sets differ\n  root replay: %v\n  snapshots:   %v", label, baseBugs, got)
					}
				}
				continue
			}
			if ck.Schedules != base.Schedules || ck.Exhausted != base.Exhausted {
				t.Errorf("%s: tree shape changed: %d schedules (exhausted=%v) vs root replay %d (%v)",
					label, ck.Schedules, ck.Exhausted, base.Schedules, base.Exhausted)
			}
			if got := bugKeys(ck); !reflect.DeepEqual(got, baseBugs) {
				t.Errorf("%s: bug sets differ\n  root replay: %v\n  snapshots:   %v", label, baseBugs, got)
			}
			if !reflect.DeepEqual(ck.Outcomes, base.Outcomes) {
				t.Errorf("%s: outcome histograms differ\n  root replay: %v\n  snapshots:   %v", label, base.Outcomes, ck.Outcomes)
			}
			if ck.Stats.ReplayedSteps > base.Stats.ReplayedSteps {
				t.Errorf("%s: snapshots raised the replay tax: %d vs root replay %d",
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
					t.Errorf("%s: no snapshot fast-forwards recorded; stats: %+v", label, ck.Stats)
				}
			}
		}
	}
}

// exploreRootReplay runs the search with no branch snapshots, so every
// schedule is positioned by replaying from the root: the reference
// TestCheckpointedEquivalence compares the default search against.
func exploreRootReplay(opts Options, body func(core.T)) *Result {
	c := newCoordinator(opts, body)
	c.snapCap = 0
	return c.run()
}

// TestSnapshotCap pins the live-snapshot cap on 10,000-step paths: a
// DPOR + state-cache search of adhocsync never holds more than
// maxLiveSnaps branch snapshots, and still positions every run after
// the first from one. A kit's pool allocates a snapshot only when none
// is free, so the snapshots it ever allocated — the ones recycled into
// the pool plus the ones still on the final path — are the high-water
// mark of live snapshots.
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
	onPath := 0
	for _, n := range e.path {
		if n.snap != nil {
			onPath++
		}
	}
	if onPath != e.liveSnaps {
		t.Errorf("live snapshot counter %d, but %d path nodes hold one", e.liveSnaps, onPath)
	}
	if peak := onPath + len(kit.pool.snaps); peak > maxLiveSnaps {
		t.Errorf("%d branch snapshots allocated, cap %d", peak, maxLiveSnaps)
	}
	if onPath < maxLiveSnaps {
		t.Errorf("final path holds %d snapshots; expected the cap %d to bind on a %d-node path",
			onPath, maxLiveSnaps, len(e.path))
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
	if got := res.Stats.ReplayedSteps + res.Stats.NovelSteps + res.Stats.RestoredSteps; got != res.Stats.TotalSteps {
		t.Errorf("%s: step law broken: replayed %d + novel %d + restored %d = %d, total %d",
			label, res.Stats.ReplayedSteps, res.Stats.NovelSteps, res.Stats.RestoredSteps, got, res.Stats.TotalSteps)
	}
}

// TestCheckpointConservation pins the two conservation laws repo-wide
// across every exploration mode, with snapshots or without: every
// schedule is positioned exactly once (checkpoint_hits +
// checkpoint_misses == schedules — all misses without the state cache), and every scheduler
// step is attributed exactly once (replayed + novel + restored ==
// total). The laws are what make the counters trustworthy: a counter
// that can drift from the ground truth silently is worse than no
// counter.
func TestCheckpointConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repository exploration sweep in -short mode")
	}
	budget := 2000
	if raceEnabled {
		budget = 300
	}
	for _, prog := range repository.All() {
		body := prog.BodyWith(smallParams[prog.Name])
		for _, mode := range leakModes {
			for _, workers := range []int{1, 8} {
				opts := Options{MaxSchedules: budget, MaxSteps: 5000, Workers: workers}
				mode.set(&opts)
				res := Explore(opts, body)
				label := fmt.Sprintf("%s/%s/workers=%d", prog.Name, mode.name, workers)
				if res.Err != nil {
					t.Fatalf("%s: %v", label, res.Err)
				}
				assertConservation(t, label, res)
				if !opts.StateCache && res.Stats.CheckpointHits != 0 {
					t.Errorf("%s: %d checkpoint hits without a state cache", label, res.Stats.CheckpointHits)
				}
			}
		}
	}
}

// leakModes is the mode matrix the goroutine-leak sweep drives: every
// reduction configuration, with branch snapshots wherever the state
// cache is on, at both worker counts.
var leakModes = []struct {
	name string
	set  func(*Options)
}{
	{"plain", func(o *Options) {}},
	{"dpor", func(o *Options) { o.DPOR = true }},
	{"cache", func(o *Options) { o.StateCache = true }},
	{"dpor+cache", func(o *Options) { o.DPOR = true; o.StateCache = true }},
	{"dpor+cache+timeouts", func(o *Options) {
		o.DPOR = true
		o.StateCache = true
		o.ExploreTimeouts = true
	}},
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
	sweep := func() {
		for _, prog := range repository.All() {
			body := prog.BodyWith(smallParams[prog.Name])
			for _, mode := range leakModes {
				for _, workers := range []int{1, 4} {
					opts := Options{MaxSchedules: 300, MaxSteps: 5000, Workers: workers}
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
	prog := body.BodyWith(smallParams["philosophers"])
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
