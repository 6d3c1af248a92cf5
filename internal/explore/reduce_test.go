package explore

import (
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// reducedModes are the reduction configurations the equivalence
// contract pins, each applied at both worker counts.
var reducedModes = []struct {
	name string
	set  func(*Options)
}{
	{"dpor", func(o *Options) { o.DPOR = true }},
	{"cache", func(o *Options) { o.StateCache = true }},
	{"dpor+cache", func(o *Options) { o.DPOR = true; o.StateCache = true }},
}

// TestReducedEquivalence is the soundness contract of the reduction
// layer, pinned over the whole program repository: for every program
// whose full tree exhausts within budget, exploration with DPOR and/or
// the state cache — at any worker count — must find exactly the same
// deduplicated BugSignature set as full exploration, never executing
// more schedules than the full tree holds. On the two benchmark gate
// programs (philosophers, account) the DPOR+cache search must explore
// at most 40% of the unreduced schedule count (the CI reduction gate
// pins the same bound through cmd/explore).
//
// Both sides share a MaxSteps bound so spin-wait programs stay
// explorable: step counts are invariant within an equivalence class,
// so truncation lands identically on the full and reduced trees.
func TestReducedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repository exploration sweep in -short mode")
	}
	budget, maxSteps := 30000, int64(5000)
	if raceEnabled {
		// Race-instrumented runs are ~20x slower; a smaller budget
		// keeps the sweep meaningful (the parallel machinery and the
		// small trees) without re-proving the largest trees.
		budget = 1000
	}
	for _, prog := range repository.All() {
		body := prog.BodyWith(prog.Explorable)
		full := Explore(Options{MaxSchedules: budget, MaxSteps: maxSteps, Workers: 1}, body)
		if full.Err != nil {
			t.Fatalf("%s: %v", prog.Name, full.Err)
		}
		if !full.Exhausted {
			t.Logf("%s: full tree exceeds %d schedules; skipping equivalence", prog.Name, budget)
			continue
		}
		fullBugs := bugKeys(full)

		for _, mode := range reducedModes {
			for _, workers := range []int{1, 8} {
				opts := Options{MaxSchedules: budget, MaxSteps: maxSteps, Workers: workers}
				mode.set(&opts)
				red := Explore(opts, body)
				label := fmt.Sprintf("%s/%s/workers=%d", prog.Name, mode.name, workers)
				if red.Err != nil {
					t.Fatalf("%s: %v", label, red.Err)
				}
				if !red.Exhausted {
					t.Errorf("%s: reduced search did not exhaust (%d schedules)", label, red.Schedules)
					continue
				}
				if rb := bugKeys(red); !reflect.DeepEqual(rb, fullBugs) {
					t.Errorf("%s: bug sets differ\n  full:    %v\n  reduced: %v", label, fullBugs, rb)
				}
				if red.Schedules > full.Schedules {
					t.Errorf("%s: reduced search grew the tree: %d vs full %d", label, red.Schedules, full.Schedules)
				}
				if workers == 1 {
					t.Logf("%s: %d -> %d schedules (%.1f%%) sleep=%d por=%d backtracks=%d hits=%d",
						label, full.Schedules, red.Schedules, 100*float64(red.Schedules)/float64(full.Schedules),
						red.Stats.SleepPruned, red.Stats.PORPruned, red.Stats.Backtracks, red.Stats.StateHits)
				}
				if mode.name == "dpor+cache" && (prog.Name == "philosophers" || prog.Name == "account") {
					if 100*red.Schedules > 40*full.Schedules {
						t.Errorf("%s: reduction gate: %d schedules > 40%% of %d", label, red.Schedules, full.Schedules)
					}
				}
			}
		}
	}
}

// TestReducedEquivalenceTimeouts extends the equivalence contract to
// timing exploration: with ExploreTimeouts on, the reduced search must
// find the same bug set as the full timing search on the timer-using
// programs — including the lost-wakeup micro-program whose bug is
// *only* reachable through an idle (time-warp) decision. This is the
// regression net for the timing pieces of the reduction layer: DPOR
// never prunes idle branches, and the state hash folds sleep and idle
// decision positions (a sleeper's deadline is a function of the step
// it slept at, so equal event chains do not imply equal timing
// futures).
func TestReducedEquivalenceTimeouts(t *testing.T) {
	lostWakeup := func(ct core.T) {
		mu := ct.NewMutex("mu")
		cv := ct.NewCond("cv", mu)
		consumer := ct.Go("consumer", func(wt core.T) {
			mu.Lock(wt)
			cv.Wait(wt) // no predicate: wakeup lost if signal fires early
			mu.Unlock(wt)
		})
		ct.Sleep(1_000_000)
		mu.Lock(ct)
		cv.Signal(ct)
		mu.Unlock(ct)
		consumer.Join(ct)
	}
	bodies := map[string]func(core.T){"micro-lostwakeup": lostWakeup}
	for _, name := range []string{"lostnotify", "sleepsync"} {
		prog, err := repository.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		bodies[name] = prog.BodyWith(prog.Explorable)
	}
	for name, body := range bodies {
		full := Explore(Options{MaxSchedules: 100000, MaxSteps: 5000, ExploreTimeouts: true, Workers: 1}, body)
		if full.Err != nil {
			t.Fatalf("%s: %v", name, full.Err)
		}
		if !full.Exhausted {
			t.Logf("%s: timing tree exceeds budget; skipping", name)
			continue
		}
		fullBugs := bugKeys(full)
		for _, mode := range reducedModes {
			for _, workers := range []int{1, 8} {
				opts := Options{MaxSchedules: 100000, MaxSteps: 5000, ExploreTimeouts: true, Workers: workers}
				mode.set(&opts)
				red := Explore(opts, body)
				label := fmt.Sprintf("%s/%s/workers=%d", name, mode.name, workers)
				if red.Err != nil {
					t.Fatalf("%s: %v", label, red.Err)
				}
				if !red.Exhausted {
					t.Errorf("%s: reduced timing search did not exhaust (%d schedules)", label, red.Schedules)
					continue
				}
				if rb := bugKeys(red); !reflect.DeepEqual(rb, fullBugs) {
					t.Errorf("%s: bug sets differ\n  full:    %v\n  reduced: %v", label, fullBugs, rb)
				}
			}
		}
		if len(fullBugs) == 0 && name == "micro-lostwakeup" {
			t.Error("micro-lostwakeup: full timing search found no bug; the fixture lost its point")
		}
	}
}

// opSpec is one micro-operation for the commutativity oracle: the
// footprint the reduction layer sees, plus the thread body performing
// it (lock specs follow the acquire with a release so runs terminate).
type opSpec struct {
	name string
	fp   func() core.Footprint
	body func(t core.T, objs *oracleObjs)
}

type oracleObjs struct {
	x, y   core.IntVar
	m, m2  core.Mutex
	c1, c2 core.Chan
	wg     core.WaitGroup
	shared core.T
}

var oracleOps = []opSpec{
	{"read-x", func() core.Footprint { return core.Footprint{Op: core.OpRead, Obj: core.InternName("x")} },
		func(t core.T, o *oracleObjs) { o.x.Load(t) }},
	{"write-x", func() core.Footprint { return core.Footprint{Op: core.OpWrite, Obj: core.InternName("x")} },
		func(t core.T, o *oracleObjs) { o.x.Store(t, 7) }},
	{"read-y", func() core.Footprint { return core.Footprint{Op: core.OpRead, Obj: core.InternName("y")} },
		func(t core.T, o *oracleObjs) { o.y.Load(t) }},
	{"write-y", func() core.Footprint { return core.Footprint{Op: core.OpWrite, Obj: core.InternName("y")} },
		func(t core.T, o *oracleObjs) { o.y.Store(t, 9) }},
	{"lock-m", func() core.Footprint { return core.Footprint{Op: core.OpLock, Obj: core.InternName("m")} },
		func(t core.T, o *oracleObjs) { o.m.Lock(t); o.m.Unlock(t) }},
	{"lock-m2", func() core.Footprint { return core.Footprint{Op: core.OpLock, Obj: core.InternName("m2")} },
		func(t core.T, o *oracleObjs) { o.m2.Lock(t); o.m2.Unlock(t) }},
	{"yield", func() core.Footprint { return core.Footprint{Op: core.OpYield} },
		func(t core.T, o *oracleObjs) { t.Yield() }},
	// Channel and waitgroup micro-ops: c1 starts with two buffered
	// values so a receive never blocks, both channels have spare
	// capacity so a send never blocks, and the waitgroup counter starts
	// at zero so a lone Wait returns immediately.
	{"send-c1", func() core.Footprint { return core.Footprint{Op: core.OpChanSend, Obj: core.InternName("c1")} },
		func(t core.T, o *oracleObjs) { o.c1.Send(t, 5) }},
	{"recv-c1", func() core.Footprint { return core.Footprint{Op: core.OpChanRecv, Obj: core.InternName("c1")} },
		func(t core.T, o *oracleObjs) { o.c1.Recv(t) }},
	{"send-c2", func() core.Footprint { return core.Footprint{Op: core.OpChanSend, Obj: core.InternName("c2")} },
		func(t core.T, o *oracleObjs) { o.c2.Send(t, 6) }},
	{"close-c2", func() core.Footprint { return core.Footprint{Op: core.OpChanClose, Obj: core.InternName("c2")} },
		func(t core.T, o *oracleObjs) { o.c2.Close(t) }},
	{"wgadd", func() core.Footprint { return core.Footprint{Op: core.OpWGAdd, Obj: core.InternName("wg")} },
		func(t core.T, o *oracleObjs) { o.wg.Add(t, 1) }},
	{"wgwait", func() core.Footprint { return core.Footprint{Op: core.OpWGWait, Obj: core.InternName("wg")} },
		func(t core.T, o *oracleObjs) { o.wg.Wait(t) }},
	{"select-c1", func() core.Footprint { return core.Footprint{Op: core.OpSelect} },
		func(t core.T, o *oracleObjs) { t.Select([]core.SelectCase{{Ch: o.c1}}) }},
	// A fork names no object; the child writes y, so the fork's
	// position against the other thread's operation is observable.
	{"fork", func() core.Footprint { return core.Footprint{Op: core.OpFork} },
		func(t core.T, o *oracleObjs) { t.Go("kid", func(kt core.T) { o.y.Store(kt, 11) }).Join(t) }},
}

// oracleOutcome executes the two-thread micro-program with thread
// "a"'s first operation and thread "b"'s first operation scheduled
// adjacently in the given order, then reports the observable result:
// verdict, failure, and the final shared state.
func oracleOutcome(t *testing.T, a, b opSpec, first, second core.ThreadID) string {
	t.Helper()
	body := func(ct core.T) {
		objs := &oracleObjs{
			x:  ct.NewInt("x", 1),
			y:  ct.NewInt("y", 2),
			m:  ct.NewMutex("m"),
			m2: ct.NewMutex("m2"),
			c1: ct.NewChan("c1", 4),
			c2: ct.NewChan("c2", 4),
			wg: ct.NewWaitGroup("wg"),
		}
		objs.c1.Send(ct, 1)
		objs.c1.Send(ct, 2)
		ha := ct.Go("a", func(wt core.T) { a.body(wt, objs) })
		hb := ct.Go("b", func(wt core.T) { b.body(wt, objs) })
		ha.Join(ct)
		hb.Join(ct)
		ct.Outcome("x=%d y=%d", objs.x.Load(ct), objs.y.Load(ct))
	}
	// Decision structure: main's kickoff, the two c1 pre-fill sends and
	// two fork executions, then starting each child parks it at its
	// first operation; the next two picks execute the two target
	// operations in the chosen order. The nonpreemptive fallback
	// finishes the run deterministically.
	decisions := []core.ThreadID{0, 0, 0, 0, 0, 1, 2, first, second}
	res := sched.Run(sched.Config{Strategy: &sched.FixedSchedule{Decisions: decisions}}, body)
	if res.Diverged {
		t.Fatalf("oracle schedule diverged for %s/%s", a.name, b.name)
	}
	out := res.Verdict.String() + "|" + res.Outcome + "|" + res.DeadlockInfo
	if res.Failure != nil {
		out += "|" + res.Failure.Msg
	}
	return out
}

// TestCommutesOracle checks the independence relation against a
// brute-force oracle: for every pair of micro-operations, execute the
// pair adjacently in both orders from the same state; if Commutes
// claims independence, the observable results must be identical. The
// explicit table rows pin the relation's intended shape (the
// conservative direction — dependent but actually commuting, like two
// acquires of different-phase locks — is allowed and untested).
func TestCommutesOracle(t *testing.T) {
	for _, a := range oracleOps {
		for _, b := range oracleOps {
			commutes := a.fp().Commutes(b.fp())
			o1 := oracleOutcome(t, a, b, 1, 2)
			o2 := oracleOutcome(t, a, b, 2, 1)
			if commutes && o1 != o2 {
				t.Errorf("Commutes(%s,%s)=true but swapping changes the outcome:\n  a-first: %s\n  b-first: %s",
					a.name, b.name, o1, o2)
			}
		}
	}

	// The intended shape, row by row.
	fp := func(op core.Op, name string) core.Footprint {
		return core.Footprint{Op: op, Obj: core.InternName(name)}
	}
	// The scheduler's lifecycle footprints: a fork names no object, and
	// the local steps carry the Local flag.
	fork := core.Footprint{Op: core.OpFork}
	unstarted := core.Footprint{Local: true}
	finishedJoin := core.Footprint{Op: core.OpJoin, Local: true, Obj: core.InternName("w")}
	table := []struct {
		a, b core.Footprint
		want bool
	}{
		{fp(core.OpRead, "x"), fp(core.OpRead, "x"), true},    // read/read same var
		{fp(core.OpRead, "x"), fp(core.OpWrite, "x"), false},  // read/write same var
		{fp(core.OpWrite, "x"), fp(core.OpWrite, "x"), false}, // write/write same var
		{fp(core.OpRead, "x"), fp(core.OpWrite, "y"), true},   // disjoint vars
		{fp(core.OpWrite, "x"), fp(core.OpWrite, "y"), true},  // disjoint writes
		{fp(core.OpLock, "m"), fp(core.OpLock, "m"), false},   // lock/lock same lock
		{fp(core.OpLock, "m"), fp(core.OpUnlock, "m"), false}, // acquire/release same lock
		{fp(core.OpLock, "m"), fp(core.OpLock, "n"), true},    // disjoint locks
		{fp(core.OpSignal, "c"), fp(core.OpWait, "c"), false}, // notify/wait same cond
		{fp(core.OpSignal, "c"), fp(core.OpWait, "d"), true},  // disjoint conds
		{fork, fork, false},                                  // forks order thread ids
		{fork, fp(core.OpWrite, "x"), true},                  // fork vs an access
		{fork, fp(core.OpLock, "m"), true},                   // fork vs a sync op
		{fork, fp(core.OpYield, ""), true},                   // fork vs local
		{fork, fp(core.OpJoin, "w"), false},                  // fork vs a join on a running child
		{unstarted, fp(core.OpWrite, "x"), true},             // a thread that has not run yet
		{unstarted, fork, true},                              // ... commutes with a fork too
		{unstarted, fp(core.OpJoin, "w"), false},             // ... but not with a running join
		{finishedJoin, fp(core.OpWrite, "x"), true},          // join on a finished child
		{finishedJoin, fork, true},                           // ... is local
		{fp(core.OpJoin, "w"), fp(core.OpWrite, "x"), false}, // join on a running child vs anything
		{fp(core.OpYield, ""), fp(core.OpWrite, "x"), true},  // yield vs anything
		{core.Footprint{}, fp(core.OpRead, "x"), false},      // unknown op conservative
		{core.Footprint{}, unstarted, false},                 // ... even against a local step
		{fp(core.OpRead, ""), fp(core.OpWrite, ""), false},   // unnamed objects alias
		// Channel and waitgroup operations (the rewrite layer's ops).
		{fp(core.OpChanSend, "c1"), fp(core.OpChanRecv, "c2"), true},  // different channels commute
		{fp(core.OpChanSend, "c1"), fp(core.OpChanSend, "c2"), true},  // disjoint sends
		{fp(core.OpChanSend, "c1"), fp(core.OpChanRecv, "c1"), false}, // same channel conservative
		{fp(core.OpChanSend, "c1"), fp(core.OpChanSend, "c1"), false}, // same-channel sends
		{fp(core.OpChanClose, "c1"), fp(core.OpChanRecv, "c1"), false},
		{fp(core.OpChanSend, "c1"), fp(core.OpLock, "m"), true}, // chan vs unrelated lock
		{fp(core.OpWGAdd, "wg"), fp(core.OpWGWait, "wg"), false},
		{fp(core.OpWGAdd, "wg"), fp(core.OpWGAdd, "wg2"), true},
		{fp(core.OpWGWait, "wg"), fp(core.OpRead, "x"), true},
		// Select names at most one of its channels, so it is dependent
		// with everything.
		{core.Footprint{Op: core.OpSelect}, fp(core.OpRead, "x"), false},
		{core.Footprint{Op: core.OpSelect, Obj: core.InternName("c1")}, fp(core.OpChanSend, "c2"), false},
	}
	for _, row := range table {
		if got := row.a.Commutes(row.b); got != row.want {
			t.Errorf("Commutes(%v,%v) = %v, want %v", row.a, row.b, got, row.want)
		}
		if got := row.b.Commutes(row.a); got != row.want {
			t.Errorf("Commutes(%v,%v) = %v, want %v (symmetry)", row.b, row.a, got, row.want)
		}
	}
}

// TestReductionStats pins that the counters move: DPOR prunes and
// backtracks on a racy program, and the state cache registers hits.
func TestReductionStats(t *testing.T) {
	prog, err := repository.Get("account")
	if err != nil {
		t.Fatal(err)
	}
	body := prog.BodyWith(prog.Explorable)

	por := Explore(Options{MaxSchedules: 200000, DPOR: true, Workers: 1}, body)
	if por.Err != nil || !por.Exhausted {
		t.Fatalf("por: err=%v exhausted=%v", por.Err, por.Exhausted)
	}
	if por.Stats.PORPruned == 0 || por.Stats.Backtracks == 0 {
		t.Errorf("DPOR ran without pruning or backtracking: %+v", por.Stats)
	}

	cache := Explore(Options{MaxSchedules: 200000, StateCache: true, Workers: 1}, body)
	if cache.Err != nil || !cache.Exhausted {
		t.Fatalf("cache: err=%v exhausted=%v", cache.Err, cache.Exhausted)
	}
	if cache.Stats.StateHits == 0 {
		t.Errorf("state cache registered no hits: %+v", cache.Stats)
	}
	if cache.Schedules >= 2728 { // unreduced golden count for account
		t.Errorf("state cache did not reduce account: %d schedules", cache.Schedules)
	}
}

// TestReducedDeterministicSerial: Workers: 1 reduced search is
// bit-for-bit reproducible (schedule counts, stats, bug indices).
func TestReducedDeterministicSerial(t *testing.T) {
	for _, name := range smallPrograms {
		prog, err := repository.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		body := prog.BodyWith(prog.Explorable)
		opts := Options{MaxSchedules: 200000, DPOR: true, StateCache: true, Workers: 1}
		a := Explore(opts, body)
		b := Explore(opts, body)
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%s: errs %v %v", name, a.Err, b.Err)
		}
		if a.Schedules != b.Schedules || a.Stats != b.Stats || !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
			t.Errorf("%s: reduced serial search not deterministic:\n  %d %+v\n  %d %+v",
				name, a.Schedules, a.Stats, b.Schedules, b.Stats)
		}
		if len(a.Bugs) != len(b.Bugs) {
			t.Fatalf("%s: bug counts differ: %d vs %d", name, len(a.Bugs), len(b.Bugs))
		}
		for i := range a.Bugs {
			if a.Bugs[i].Index != b.Bugs[i].Index {
				t.Errorf("%s: bug %d at index %d vs %d", name, i, a.Bugs[i].Index, b.Bugs[i].Index)
			}
		}
	}
}

// TestStateCacheConcurrent hammers one state cache from several
// goroutines, as the workers of one search do: inserts of colliding
// states overwrite the same slots while lookups copy hits out. Every
// entry's summary is a function of its hash, so a hit copied while
// another goroutine was overwriting the slot would show as a summary
// that does not match the hash it came with (and -race reports the
// unsynchronized access).
func TestStateCacheConcurrent(t *testing.T) {
	c := newStateCache()
	const goroutines, ops, slots = 4, 20000, 64
	entry := func(g, i int) (uint64, []uint64) {
		// Distinct hashes that share slots: the slot is i%slots, the
		// high bits tell the writers apart.
		h := uint64(g)<<40 | uint64(i)<<20 | uint64(i%slots)
		sum := make([]uint64, 1+int(h%subCap))
		for k := range sum {
			sum[k] = h*31 + uint64(k)
		}
		return h, sum
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var hit cacheEnt
			for i := 0; i < ops; i++ {
				h, sum := entry(g, i)
				c.insert(h, 0, sum)
				if !c.lookup(h, 0, &hit) {
					continue // another goroutine already overwrote the slot
				}
				if hit.hash != h || int(hit.nsum) != len(sum) || !reflect.DeepEqual(hit.sum[:hit.nsum], sum) {
					t.Errorf("goroutine %d: torn hit for %#x: hash %#x, summary %v", g, h, hit.hash, hit.sum[:hit.nsum])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// internJunkEnv makes TestReducedCountsIgnoreInternOrder's test binary
// a child that interns that many unrelated names, runs the searches
// and prints their counts.
const internJunkEnv = "EXPLORE_INTERN_JUNK"

// TestReducedCountsIgnoreInternOrder pins that a reduced search is a
// function of the program and its options alone, not of the process's
// name-intern history: the state hash folds each object's name, not
// the handle the interner happened to hand out. Handles are
// process-wide and permanent, so the test runs two fresh processes of
// its own binary. Both explore account{3,1}, whose tree is big enough
// that the direct-mapped state cache overwrites entries (which is where
// the handles showed), and every repository program at its explorable
// size, all with DPOR and the state cache at one worker. One runs them
// straight away; the other interns unrelated names first and runs the
// searches in reverse order, so every name gets another handle. Their
// schedule counts, first bugs, outcomes and Stats must not differ.
func TestReducedCountsIgnoreInternOrder(t *testing.T) {
	if junk := os.Getenv(internJunkEnv); junk != "" {
		internJunkChild(t, junk)
		return
	}
	child := func(junk int) (handle string, counts map[string]string) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestReducedCountsIgnoreInternOrder$", "-test.count=1")
		cmd.Env = append(os.Environ(), internJunkEnv+"="+strconv.Itoa(junk))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child with %d junk names: %v\n%s", junk, err, out)
		}
		counts = map[string]string{}
		for _, line := range strings.Split(string(out), "\n") {
			if v, ok := strings.CutPrefix(line, "handle "); ok {
				handle = v
			} else if v, ok := strings.CutPrefix(line, "counts "); ok {
				label, rest, _ := strings.Cut(v, " ")
				counts[label] = rest
			}
		}
		if handle == "" || len(counts) == 0 {
			t.Fatalf("child with %d junk names printed no counts:\n%s", junk, out)
		}
		return handle, counts
	}
	h0, c0 := child(0)
	h7, c7 := child(7)
	if h0 == h7 {
		t.Fatalf("both children interned \"balance\" as handle %s; the test lost its point", h0)
	}
	if !reflect.DeepEqual(c0, c7) {
		for label, fresh := range c0 {
			if again := c7[label]; again != fresh {
				t.Errorf("%s: intern history moved the search:\n  fresh:           %s\n  after junk names: %s", label, fresh, again)
			}
		}
	}
	t.Logf("handles %s and %s; account{3,1}: %s", h0, h7, c0["account{3,1}"])
}

// internJunkChild is the child side of TestReducedCountsIgnoreInternOrder.
func internJunkChild(t *testing.T, junk string) {
	n, err := strconv.Atoi(junk)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		core.InternName(fmt.Sprintf("junk%d", i))
	}
	type search struct {
		label string
		opts  Options
		body  func(core.T)
	}
	account, err := repository.Get("account")
	if err != nil {
		t.Fatal(err)
	}
	searches := []search{{"account{3,1}", Options{MaxSchedules: 200000, DPOR: true, StateCache: true, Workers: 1},
		account.BodyWith(repository.Params{"depositors": 3, "deposits": 1})}}
	for _, prog := range repository.All() {
		searches = append(searches, search{prog.Name,
			Options{MaxSchedules: 2000, MaxSteps: 500, DPOR: true, StateCache: true, Workers: 1},
			prog.BodyWith(prog.Explorable)})
	}
	if n > 0 {
		slices.Reverse(searches)
	}
	for _, s := range searches {
		res := Explore(s.opts, s.body)
		fmt.Printf("counts %s %d %d %v %+v\n", s.label, res.Schedules, res.FirstBugIndex(), res.Outcomes, res.Stats)
	}
	balance, _ := core.LookupName("balance")
	fmt.Printf("handle %d\n", balance)
}
