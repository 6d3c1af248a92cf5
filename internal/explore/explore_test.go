package explore

import (
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

// lostUpdate is the canonical 1-preemption bug: two unsynchronized
// load-then-store increments.
func lostUpdate(ct core.T) {
	x := ct.NewInt("x", 0)
	h1 := ct.Go("a", func(wt core.T) {
		v := x.Load(wt)
		x.Store(wt, v+1)
	})
	h2 := ct.Go("b", func(wt core.T) {
		v := x.Load(wt)
		x.Store(wt, v+1)
	})
	h1.Join(ct)
	h2.Join(ct)
	ct.Assert(x.Load(ct) == 2, "lost update")
}

func TestExhaustiveFindsLostUpdate(t *testing.T) {
	res := Explore(Options{MaxSchedules: 50000}, lostUpdate)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Bugs) == 0 {
		t.Fatalf("exhaustive search missed the bug (%d schedules)", res.Schedules)
	}
	if !res.Exhausted && res.Schedules < 50000 {
		t.Fatalf("search stopped early: %d schedules, not exhausted", res.Schedules)
	}
	t.Logf("schedules=%d firstBug=%d outcomes=%d", res.Schedules, res.FirstBugIndex(), len(res.Outcomes))
}

// TestFirstScheduleIsBaseline checks the DFS descends the
// nonpreemptive schedule first, so a bug-free baseline means the first
// schedule passes.
func TestFirstScheduleIsBaseline(t *testing.T) {
	res := Explore(Options{MaxSchedules: 1}, lostUpdate)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Bugs) != 0 {
		t.Fatalf("first (nonpreemptive) schedule found the bug: %+v", res.Bugs)
	}
}

// TestPreemptionBoundSeparates pins context bounding: the lost update
// needs one preemption, so bound 0 misses it and bound 1 finds it with
// far fewer schedules than the unbounded search.
func TestPreemptionBoundSeparates(t *testing.T) {
	res0 := Explore(Options{MaxSchedules: 50000, PreemptionBound: Bound(0)}, lostUpdate)
	if res0.Err != nil {
		t.Fatal(res0.Err)
	}
	if len(res0.Bugs) != 0 {
		t.Fatalf("bound-0 search found a 1-preemption bug: impossible")
	}
	if !res0.Exhausted {
		t.Fatalf("bound-0 search did not exhaust (%d schedules)", res0.Schedules)
	}

	res1 := Explore(Options{MaxSchedules: 50000, PreemptionBound: Bound(1)}, lostUpdate)
	if res1.Err != nil {
		t.Fatal(res1.Err)
	}
	if len(res1.Bugs) == 0 {
		t.Fatal("bound-1 search missed the 1-preemption bug")
	}

	full := Explore(Options{MaxSchedules: 50000}, lostUpdate)
	if !res1.Exhausted || !full.Exhausted {
		t.Skipf("searches truncated (bound1=%d full=%d); cannot compare sizes", res1.Schedules, full.Schedules)
	}
	if res1.Schedules >= full.Schedules {
		t.Fatalf("bound-1 (%d) not smaller than unbounded (%d)", res1.Schedules, full.Schedules)
	}
	t.Logf("bound0=%d bound1=%d full=%d", res0.Schedules, res1.Schedules, full.Schedules)
}

// TestSleepSetsReduce checks sleep sets cut the schedule count on a
// program with independent operations, without losing the bug.
func TestSleepSetsReduce(t *testing.T) {
	// Two threads touching disjoint variables (pure independence)
	// plus the racy pair.
	body := func(ct core.T) {
		x := ct.NewInt("x", 0)
		a := ct.NewInt("a", 0)
		b := ct.NewInt("b", 0)
		h1 := ct.Go("a", func(wt core.T) {
			a.Add(wt, 1)
			v := x.Load(wt)
			x.Store(wt, v+1)
		})
		h2 := ct.Go("b", func(wt core.T) {
			b.Add(wt, 1)
			v := x.Load(wt)
			x.Store(wt, v+1)
		})
		h1.Join(ct)
		h2.Join(ct)
		ct.Assert(x.Load(ct) == 2, "lost update")
	}
	// Workers: 1 — this pins the *serial* pruning property; across
	// shard boundaries sleep sets prune less (see parallel_test.go).
	plain := Explore(Options{MaxSchedules: 200000, Workers: 1}, body)
	pruned := Explore(Options{MaxSchedules: 200000, SleepSets: true, Workers: 1}, body)
	if plain.Err != nil || pruned.Err != nil {
		t.Fatal(plain.Err, pruned.Err)
	}
	if !plain.Exhausted || !pruned.Exhausted {
		t.Skipf("not exhausted (plain=%d pruned=%d)", plain.Schedules, pruned.Schedules)
	}
	if len(pruned.Bugs) == 0 {
		t.Fatal("sleep sets lost the bug")
	}
	if pruned.Schedules >= plain.Schedules {
		t.Fatalf("sleep sets did not reduce: %d vs %d", pruned.Schedules, plain.Schedules)
	}
	t.Logf("plain=%d pruned=%d (%.1f%%)", plain.Schedules, pruned.Schedules,
		100*float64(pruned.Schedules)/float64(plain.Schedules))
}

// TestDeadlockScenarioReplayable: exploration finds the lock-order
// deadlock and the saved scenario reproduces it deterministically.
func TestDeadlockScenarioReplayable(t *testing.T) {
	body := func(ct core.T) {
		a := ct.NewMutex("A")
		b := ct.NewMutex("B")
		h1 := ct.Go("ab", func(wt core.T) {
			a.Lock(wt)
			b.Lock(wt)
			b.Unlock(wt)
			a.Unlock(wt)
		})
		h2 := ct.Go("ba", func(wt core.T) {
			b.Lock(wt)
			a.Lock(wt)
			a.Unlock(wt)
			b.Unlock(wt)
		})
		h1.Join(ct)
		h2.Join(ct)
	}
	res := Explore(Options{MaxSchedules: 100000, StopAtFirstBug: true}, body)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Bugs) == 0 {
		t.Fatalf("deadlock not found in %d schedules", res.Schedules)
	}
	bug := res.Bugs[0]
	if bug.Result.Verdict != core.VerdictDeadlock {
		t.Fatalf("bug verdict = %v", bug.Result.Verdict)
	}
	for i := 0; i < 5; i++ {
		rep := sched.Run(sched.Config{Strategy: &sched.FixedSchedule{Decisions: bug.Schedule}}, body)
		if rep.Verdict != core.VerdictDeadlock {
			t.Fatalf("replay %d: verdict %v, want deadlock", i, rep.Verdict)
		}
	}
}

// TestTrivialProgramOneSchedule: no concurrency, one schedule,
// exhausted.
func TestTrivialProgramOneSchedule(t *testing.T) {
	res := Explore(Options{}, func(ct core.T) {
		x := ct.NewInt("x", 0)
		x.Store(ct, 1)
		ct.Assert(x.Load(ct) == 1, "")
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Schedules != 1 || !res.Exhausted {
		t.Fatalf("schedules=%d exhausted=%v, want 1/true", res.Schedules, res.Exhausted)
	}
}

// TestOutcomeEnumeration: exploration must observe every possible
// final value of an order-dependent computation (here 2*?+k chains
// give distinct outcomes per interleaving class).
func TestOutcomeEnumeration(t *testing.T) {
	body := func(ct core.T) {
		x := ct.NewInt("x", 0)
		h1 := ct.Go("a", func(wt core.T) {
			v := x.Load(wt)
			x.Store(wt, v*2+1)
		})
		h2 := ct.Go("b", func(wt core.T) {
			v := x.Load(wt)
			x.Store(wt, v*2+2)
		})
		h1.Join(ct)
		h2.Join(ct)
		ct.Outcome("x=%d", x.Load(ct))
	}
	res := Explore(Options{MaxSchedules: 100000}, body)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Exhausted {
		t.Skipf("not exhausted: %d", res.Schedules)
	}
	// Possible final values: serial a;b -> 4, serial b;a -> 5,
	// interleavings -> {1,2}.
	want := map[string]bool{"pass:x=4": true, "pass:x=5": true, "pass:x=1": true, "pass:x=2": true}
	for o := range want {
		if res.Outcomes[o] == 0 {
			t.Fatalf("outcome %q never observed; got %v", o, res.Outcomes)
		}
	}
	for o := range res.Outcomes {
		if !want[o] {
			t.Fatalf("unexpected outcome %q", o)
		}
	}
}

// TestExploreTimeoutsFindsLostNotify: the lost-wakeup timing bug is
// invisible to plain exploration (its bounded tree without timer
// branching is provably clean) and found once timer expirations are
// choices — the paper's systematic-exploration promise extended to
// timing bugs.
func TestExploreTimeoutsFindsLostNotify(t *testing.T) {
	body := func(ct core.T) {
		mu := ct.NewMutex("mu")
		cv := ct.NewCond("cv", mu)
		consumer := ct.Go("consumer", func(wt core.T) {
			mu.Lock(wt)
			cv.Wait(wt) // no predicate: wakeup lost if signal fires early
			mu.Unlock(wt)
		})
		ct.Sleep(1_000_000) // "plenty of time" for the consumer to park
		mu.Lock(ct)
		cv.Signal(ct)
		mu.Unlock(ct)
		consumer.Join(ct)
	}

	plain := Explore(Options{MaxSchedules: 50000}, body)
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	if !plain.Exhausted || len(plain.Bugs) != 0 {
		t.Fatalf("plain search should exhaust clean: exhausted=%v bugs=%d", plain.Exhausted, len(plain.Bugs))
	}

	timed := Explore(Options{MaxSchedules: 50000, ExploreTimeouts: true, StopAtFirstBug: true}, body)
	if timed.Err != nil {
		t.Fatal(timed.Err)
	}
	if len(timed.Bugs) == 0 {
		t.Fatalf("timeout-aware search missed the lost wakeup (%d schedules)", timed.Schedules)
	}
	if timed.Bugs[0].Result.Verdict != core.VerdictDeadlock {
		t.Fatalf("bug verdict = %v", timed.Bugs[0].Result.Verdict)
	}
	// The scenario replays, idle decisions included.
	rep := sched.Run(sched.Config{Strategy: &sched.FixedSchedule{Decisions: timed.Bugs[0].Schedule}}, body)
	if rep.Verdict != core.VerdictDeadlock {
		t.Fatalf("replay verdict = %v", rep.Verdict)
	}
}

// TestThreadSet pins the one thread-set type: ids in [0, 64) are
// members once added, ids outside it (the idle pseudo-thread, -1, 64
// and beyond) never are, and adding one changes nothing. sleepAfter
// keeps exactly the sleeping options whose footprints commute with the
// successor's operation.
func TestThreadSet(t *testing.T) {
	for _, tc := range []struct {
		id     core.ThreadID
		member bool
	}{
		{sched.IdleID, false},
		{-1, false},
		{0, true},
		{63, true},
		{64, false},
		{1000, false},
	} {
		base := threadSet(0).with(5)
		s := base.with(tc.id)
		if got := s.has(tc.id); got != tc.member {
			t.Errorf("id %d: member = %v, want %v", tc.id, got, tc.member)
		}
		if tc.member {
			if s.len() != 2 || !s.has(5) {
				t.Errorf("id %d: set %b, want {5, %d}", tc.id, s, tc.id)
			}
		} else if s != base {
			t.Errorf("id %d: adding it changed the set %b to %b", tc.id, base, s)
		}
		if got := s.with(tc.id); got != s {
			t.Errorf("id %d: adding it twice changed the set %b to %b", tc.id, s, got)
		}
	}

	wr := func(o uint32) core.Footprint { return core.Footprint{Op: core.OpWrite, Obj: o} }
	rd := func(o uint32) core.Footprint { return core.Footprint{Op: core.OpRead, Obj: o} }
	n := &node{
		options: []core.ThreadID{0, 1, 2, 3, 63, sched.IdleID},
		fps:     []core.Footprint{wr(1), rd(2), wr(2), {Op: core.OpFork}, rd(3), {}},
	}
	for _, o := range n.options {
		n.sleep = n.sleep.with(o)
	}
	// Thread 9 sleeps but is no option here: it has no footprint to
	// compare, so no successor inherits it.
	n.sleep = n.sleep.with(9)
	for _, tc := range []struct {
		fp   core.Footprint
		want []core.ThreadID
	}{
		{rd(2), []core.ThreadID{0, 1, 63}},
		{wr(2), []core.ThreadID{0, 63}},
		{wr(1), []core.ThreadID{1, 2, 63}},
		{rd(7), []core.ThreadID{0, 1, 2, 63}},
		{core.Footprint{}, nil},
	} {
		var want threadSet
		for _, id := range tc.want {
			want = want.with(id)
		}
		if got := n.sleepAfter(tc.fp); got != want {
			t.Errorf("sleepAfter(%+v) = %b, want %b", tc.fp, got, want)
		}
	}
	n.sleep = 0
	if got := n.sleepAfter(rd(7)); got != 0 {
		t.Errorf("sleepAfter of an empty sleep set = %b", got)
	}
}
