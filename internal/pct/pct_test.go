package pct

import (
	"reflect"
	"slices"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// bodyOf returns a repository program's body at its explorable size,
// so campaigns stay fast.
func bodyOf(t testing.TB, name string) func(core.T) {
	t.Helper()
	prog, err := repository.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return prog.BodyWith(prog.Explorable)
}

// lostUpdate is the canonical 1-preemption bug (mirrors the explore
// and fuzz tests), free of repository coupling.
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

func TestPCTFindsLostUpdate(t *testing.T) {
	res := Run(Options{MaxRuns: 500, Seed: 1, StopAtFirstBug: true}, lostUpdate)
	if len(res.Bugs) == 0 {
		t.Fatalf("pct missed the lost update in %d runs", res.Runs)
	}
	if res.FirstBugIndex() < 1 {
		t.Fatalf("first bug index = %d, want >= 1", res.FirstBugIndex())
	}
	if res.Runs > 500 {
		t.Fatalf("budget overrun: %d runs", res.Runs)
	}
}

// pctGolden pins the fixed-seed campaign exactly, the same convention
// TestFuzzGolden pins for fuzzing: every value below is a pure
// function of (program, Seed: 1, Depth: DefaultDepth, MaxRuns: 1000),
// so any drift here is a change to the priority scheduler or the
// change-point sampling and must be deliberate.
var pctGolden = []struct {
	program    string
	firstBug   int
	bugs       int
	estSteps   int64
	maxThreads int
}{
	{"account", 2, 1, 16, 3},
	{"statmax", 5, 1, 14, 3},
	{"semleak", 11, 1, 22, 2},
	{"philosophers", 6, 1, 23, 3},
	{"abastack", 58, 1, 41, 3},
}

func TestPCTGolden(t *testing.T) {
	for _, g := range pctGolden {
		res := Run(Options{MaxRuns: 1000, Seed: 1}, bodyOf(t, g.program))
		if res.Runs != 1000 {
			t.Errorf("%s: runs = %d, want 1000", g.program, res.Runs)
		}
		if got := res.FirstBugIndex(); got != g.firstBug {
			t.Errorf("%s: first bug at %d, golden %d", g.program, got, g.firstBug)
		}
		if len(res.Bugs) != g.bugs {
			t.Errorf("%s: %d distinct bugs, golden %d", g.program, len(res.Bugs), g.bugs)
		}
		if res.EstimatedSteps != g.estSteps {
			t.Errorf("%s: estimated steps = %d, golden %d", g.program, res.EstimatedSteps, g.estSteps)
		}
		if res.MaxThreads != g.maxThreads {
			t.Errorf("%s: max threads = %d, golden %d", g.program, res.MaxThreads, g.maxThreads)
		}
	}
}

// TestPCTDeterministic: a fixed seed is byte-identical campaign over
// campaign — run counts, bug indices, signatures and the recorded
// bug schedules (which is what makes saved pct scenarios replayable).
func TestPCTDeterministic(t *testing.T) {
	for _, name := range []string{"account", "philosophers", "abastack"} {
		body := bodyOf(t, name)
		a := Run(Options{MaxRuns: 600, Seed: 7}, body)
		b := Run(Options{MaxRuns: 600, Seed: 7}, body)
		if a.Runs != b.Runs || a.EstimatedSteps != b.EstimatedSteps || a.MaxThreads != b.MaxThreads {
			t.Errorf("%s: campaigns differ: %+v vs %+v", name, a, b)
		}
		if len(a.Bugs) != len(b.Bugs) {
			t.Fatalf("%s: bug counts differ: %d vs %d", name, len(a.Bugs), len(b.Bugs))
		}
		for i := range a.Bugs {
			if a.Bugs[i].Index != b.Bugs[i].Index {
				t.Errorf("%s: bug %d index %d vs %d", name, i, a.Bugs[i].Index, b.Bugs[i].Index)
			}
			if core.BugSignature(a.Bugs[i].Result) != core.BugSignature(b.Bugs[i].Result) {
				t.Errorf("%s: bug %d signatures differ", name, i)
			}
			if !reflect.DeepEqual(a.Bugs[i].Schedule, b.Bugs[i].Schedule) {
				t.Errorf("%s: bug %d schedules differ", name, i)
			}
		}
	}
}

// TestPCTGuarantee checks the depth-d probabilistic guarantee
// empirically: a single depth-2 PCT run exposes the account lost
// update (a bug of preemption depth 1, i.e. PCT depth 2) with
// probability at least 1/(n*k) for n threads and k steps (Burckhardt
// et al.). With n=3 and k<=16 the bound is ~1/48 ≈ 2.1%; the measured
// per-run hit rate sits around 8%, so 300 independent seeds falling
// below the bound would be an astronomically unlikely regression.
//
// Each seed spends MaxRuns: 2 because run 1 is the no-change-point
// probe that estimates the horizon; run 2 is the first real depth-2
// run, and only a hit on that run counts.
func TestPCTGuarantee(t *testing.T) {
	if testing.Short() {
		t.Skip("empirical guarantee sweep in -short mode")
	}
	body := bodyOf(t, "account")
	const seeds = 300
	hits := 0
	var n int
	var k int64
	for s := int64(0); s < seeds; s++ {
		res := Run(Options{MaxRuns: 2, Seed: s, Depth: 2}, body)
		if res.FirstBugIndex() == 2 {
			hits++
		}
		if res.MaxThreads > n {
			n = res.MaxThreads
		}
		if res.EstimatedSteps > k {
			k = res.EstimatedSteps
		}
	}
	bound := 1 / (float64(n) * float64(k))
	rate := float64(hits) / seeds
	t.Logf("depth-2 hit rate %.3f (%d/%d), guarantee lower bound 1/(n*k) = 1/(%d*%d) = %.4f",
		rate, hits, seeds, n, k, bound)
	if rate < bound {
		t.Errorf("empirical hit rate %.4f below the depth-2 guarantee %.4f", rate, bound)
	}
}

// TestNewStrategyIsRunsStrategy: the per-run strategies NewFactory
// builds (the strategy table's pct entry) are the ones Run builds.
// Driving a fresh factory over run i's derived seed core.MixSeed(1, i)
// reproduces the bug Run found first, decision for decision.
func TestNewStrategyIsRunsStrategy(t *testing.T) {
	for _, g := range pctGolden {
		body := bodyOf(t, g.program)
		res := Run(Options{MaxRuns: 1000, Seed: 1, StopAtFirstBug: true}, body)
		k := res.FirstBugIndex()
		if k < 2 {
			t.Fatalf("%s: first bug at run %d; the check needs a run with change points", g.program, k)
		}
		next := NewFactory(0)
		var got *core.Result
		for i := 0; i < k; i++ {
			got = sched.Run(sched.Config{Strategy: next(core.MixSeed(1, int64(i))), RecordSchedule: true}, body)
		}
		want := res.Bugs[0]
		if core.BugSignature(got) != core.BugSignature(want.Result) {
			t.Errorf("%s: factory run %d verdict %q, Run found %q",
				g.program, k, core.BugSignature(got), core.BugSignature(want.Result))
		}
		if !reflect.DeepEqual(got.Schedule, want.Schedule) {
			t.Errorf("%s: factory schedule differs from Run's run %d", g.program, k)
		}
	}
}

// freshFactory is the oracle for NewFactory's in-place reset: the same
// horizon bookkeeping and change-point sampling, with a strategy built
// from nothing (new rng, new tables) on every call.
type freshFactory struct {
	depth   int
	horizon int64
	last    *strategy
}

func (f *freshFactory) next(seed int64) *strategy {
	changePoints := 0
	if f.last != nil {
		f.horizon = max(f.horizon, f.last.steps)
		changePoints = f.depth - 1
	}
	rng := core.NewRand(seed)
	horizon := max(f.horizon, 1)
	changes := map[int64]bool{}
	for int64(len(changes)) < int64(changePoints) && int64(len(changes)) < horizon {
		changes[rng.Int63n(horizon)] = true
	}
	f.last = &strategy{rng: rng, prio: map[core.ThreadID]int64{}, changes: changes}
	return f.last
}

// TestReusedStrategyMatchesFresh: over every repository program and 50
// seeds, NewFactory's one strategy, reset in place run after run,
// records the same schedules and verdicts as freshly built strategies
// driven through the same seed sequence.
func TestReusedStrategyMatchesFresh(t *testing.T) {
	r := sched.NewRunner()
	defer r.Close()
	run := func(prog *repository.Program, st sched.Strategy) (core.Verdict, string, []core.ThreadID) {
		res := r.Start(sched.Config{Strategy: st, Name: prog.Name, MaxSteps: 100_000, Plan: prog.Plan,
			RecordSchedule: true}, prog.BodyWith(nil))
		return res.Verdict, res.Outcome, slices.Clone(res.Schedule)
	}
	for _, prog := range repository.All() {
		reused := NewFactory(DefaultDepth)
		fresh := &freshFactory{depth: DefaultDepth}
		for i := int64(0); i < 50; i++ {
			seed := core.MixSeed(1, i)
			wv, wo, ws := run(prog, fresh.next(seed))
			gv, gotOut, gs := run(prog, reused(seed))
			if gv != wv || gotOut != wo || !reflect.DeepEqual(gs, ws) {
				t.Fatalf("%s run %d: reused strategy ran %v %q (%d decisions), fresh %v %q (%d decisions)",
					prog.Name, i, gv, gotOut, len(gs), wv, wo, len(ws))
			}
		}
	}
}
