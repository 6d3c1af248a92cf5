package fuzz

import (
	"reflect"
	"sort"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/multiout"
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
// tests), free of repository coupling.
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

func TestFuzzFindsLostUpdate(t *testing.T) {
	res := Fuzz(Options{MaxRuns: 500, Seed: 1, StopAtFirstBug: true}, lostUpdate)
	if len(res.Bugs) == 0 {
		t.Fatalf("fuzzing missed the lost update in %d runs", res.Runs)
	}
	if res.FirstBugIndex() < 1 {
		t.Fatalf("first bug index = %d, want >= 1", res.FirstBugIndex())
	}
	if res.Runs > 500 {
		t.Fatalf("budget overrun: %d runs", res.Runs)
	}
}

// fuzzGolden pins the fixed-seed serial campaign exactly, the same
// convention TestSerialGolden pins for exploration: every value below
// is a pure function of (program, Seed: 1, Workers: 1, MaxRuns: 1000),
// so any drift here is a change to the search semantics and must be
// deliberate.
var fuzzGolden = []struct {
	program      string
	firstBug     int
	bugs         int
	coverage     int
	corpusSize   int
	coverageRuns int
}{
	{"account", 4, 1, 10, 2, 2},
	{"statmax", 5, 1, 9, 4, 4},
	{"semleak", 3, 1, 11, 4, 4},
	{"waitholdinglock", 2, 1, 9, 4, 4},
}

func TestFuzzGolden(t *testing.T) {
	for _, g := range fuzzGolden {
		res := Fuzz(Options{MaxRuns: 1000, Seed: 1}, bodyOf(t, g.program))
		if res.Runs != 1000 {
			t.Errorf("%s: runs = %d, want 1000", g.program, res.Runs)
		}
		if got := res.FirstBugIndex(); got != g.firstBug {
			t.Errorf("%s: first bug at %d, golden %d", g.program, got, g.firstBug)
		}
		if len(res.Bugs) != g.bugs {
			t.Errorf("%s: %d distinct bugs, golden %d", g.program, len(res.Bugs), g.bugs)
		}
		if res.Coverage != g.coverage {
			t.Errorf("%s: coverage = %d, golden %d", g.program, res.Coverage, g.coverage)
		}
		if res.CorpusSize != g.corpusSize {
			t.Errorf("%s: corpus = %d, golden %d", g.program, res.CorpusSize, g.corpusSize)
		}
		if res.CoverageRuns != g.coverageRuns {
			t.Errorf("%s: coverage runs = %d, golden %d", g.program, res.CoverageRuns, g.coverageRuns)
		}
	}
}

// TestFuzzDeterministicSerial: Workers: 1 with a fixed seed is
// byte-identical campaign over campaign — runs, bug indices and
// signatures, coverage, corpus, repairs and the per-operator
// histogram.
func TestFuzzDeterministicSerial(t *testing.T) {
	for _, name := range []string{"account", "philosophers", "abastack"} {
		body := bodyOf(t, name)
		a := Fuzz(Options{MaxRuns: 800, Seed: 7}, body)
		b := Fuzz(Options{MaxRuns: 800, Seed: 7}, body)
		if a.Runs != b.Runs || a.Coverage != b.Coverage || a.CorpusSize != b.CorpusSize ||
			a.CoverageRuns != b.CoverageRuns || a.Repairs != b.Repairs {
			t.Errorf("%s: campaigns differ: %+v vs %+v", name, a, b)
		}
		if !reflect.DeepEqual(a.Ops, b.Ops) {
			t.Errorf("%s: operator histograms differ: %v vs %v", name, a.Ops, b.Ops)
		}
		if len(a.Bugs) != len(b.Bugs) {
			t.Fatalf("%s: bug counts differ: %d vs %d", name, len(a.Bugs), len(b.Bugs))
		}
		for i := range a.Bugs {
			if a.Bugs[i].Index != b.Bugs[i].Index ||
				core.BugSignature(a.Bugs[i].Result) != core.BugSignature(b.Bugs[i].Result) ||
				!reflect.DeepEqual(a.Bugs[i].Schedule, b.Bugs[i].Schedule) {
				t.Errorf("%s: bug %d differs: #%d vs #%d", name, i, a.Bugs[i].Index, b.Bugs[i].Index)
			}
		}
	}
}

// bugKeys returns the sorted deduplicated bug signatures of a result.
func bugKeys(res *Result) []string {
	keys := make([]string, 0, len(res.Bugs))
	for _, b := range res.Bugs {
		keys = append(keys, core.BugSignature(b.Result))
	}
	sort.Strings(keys)
	return keys
}

// TestFuzzWorkersSameBugs is the parallel contract: Workers: 4 must
// find the same deduplicated bug set Workers: 1 finds (run order and
// indices may differ — fuzzing is feedback-driven — but not the bugs,
// given a budget generous enough for every worker stream).
func TestFuzzWorkersSameBugs(t *testing.T) {
	for _, name := range []string{"account", "statmax", "semleak", "waitholdinglock"} {
		body := bodyOf(t, name)
		serial := Fuzz(Options{MaxRuns: 2000, Seed: 1, Workers: 1}, body)
		parallel := Fuzz(Options{MaxRuns: 2000, Seed: 1, Workers: 4}, body)
		if parallel.Runs > 2000 {
			t.Errorf("%s: parallel budget overrun: %d runs", name, parallel.Runs)
		}
		if sk, pk := bugKeys(serial), bugKeys(parallel); !reflect.DeepEqual(sk, pk) {
			t.Errorf("%s: bug sets differ\n  serial:   %v\n  parallel: %v", name, sk, pk)
		}
	}
}

// TestFuzzStopAtFirstBug: the stop is global and the budget is not
// exhausted once a bug is in hand.
func TestFuzzStopAtFirstBug(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res := Fuzz(Options{MaxRuns: 5000, Seed: 1, Workers: workers, StopAtFirstBug: true}, bodyOf(t, "account"))
		if len(res.Bugs) == 0 {
			t.Fatalf("workers=%d: no bug found", workers)
		}
		if res.Runs >= 5000 {
			t.Errorf("workers=%d: stop did not cut the campaign short (%d runs)", workers, res.Runs)
		}
	}
}

// TestFuzzBugReplayable: a reported bug schedule is the executed
// decision log, so FixedSchedule replays it to the identical failure.
func TestFuzzBugReplayable(t *testing.T) {
	body := bodyOf(t, "abastack")
	res := Fuzz(Options{MaxRuns: 5000, Seed: 0, StopAtFirstBug: true}, body)
	if len(res.Bugs) == 0 {
		t.Fatalf("abastack bug not found in %d runs", res.Runs)
	}
	bug := res.Bugs[0]
	for i := 0; i < 5; i++ {
		rep := sched.Run(sched.Config{Strategy: &sched.FixedSchedule{Decisions: bug.Schedule}}, body)
		if core.BugSignature(rep) != core.BugSignature(bug.Result) {
			t.Fatalf("replay %d: %q != recorded %q", i, core.BugSignature(rep), core.BugSignature(bug.Result))
		}
	}
}

// TestFuzzOpsExercised: a full-budget campaign runs every mutation
// operator and accounts for every run in the histogram.
func TestFuzzOpsExercised(t *testing.T) {
	res := Fuzz(Options{MaxRuns: 2000, Seed: 1}, bodyOf(t, "account"))
	total := 0
	for _, n := range res.Ops {
		total += n
	}
	if total != res.Runs {
		t.Fatalf("operator histogram sums to %d, runs = %d", total, res.Runs)
	}
	if res.Ops["seed"] == 0 {
		t.Fatal("no seeding runs recorded")
	}
	for _, m := range mutators {
		if res.Ops[m.name] == 0 {
			t.Errorf("operator %s never ran: %v", m.name, res.Ops)
		}
	}
}

// TestFuzzCorpusCap: MaxCorpus bounds retained entries even on the
// many-outcomes program (whose outcome diversity keeps admitting new
// entries), and eviction keeps the campaign running.
func TestFuzzCorpusCap(t *testing.T) {
	res := Fuzz(Options{MaxRuns: 1500, Seed: 1, MaxCorpus: 4}, multiout.Body())
	if res.CorpusSize > 4 {
		t.Fatalf("corpus = %d, cap 4", res.CorpusSize)
	}
	if res.CoverageRuns <= 4 {
		t.Fatalf("multiout should keep yielding new outcomes: coverage runs = %d", res.CoverageRuns)
	}
}

// TestFuzzPreemptionBound: the bounding mutator honors an explicit
// bound and the campaign still finds the 1-preemption bug.
func TestFuzzPreemptionBound(t *testing.T) {
	res := Fuzz(Options{MaxRuns: 1000, Seed: 1, PreemptionBound: Bound(1), StopAtFirstBug: true}, bodyOf(t, "account"))
	if len(res.Bugs) == 0 {
		t.Fatalf("bounded campaign missed the account bug in %d runs", res.Runs)
	}
}

// TestFirstBugIndexNoBug pins the documented -1 sentinel.
func TestFirstBugIndexNoBug(t *testing.T) {
	res := &Result{}
	if got := res.FirstBugIndex(); got != -1 {
		t.Fatalf("FirstBugIndex() on empty result = %d, want -1", got)
	}
}

// TestFuzzCorrectProgramClean: a defect-free program yields no bugs
// however hard the fuzzer leans on it.
func TestFuzzCorrectProgramClean(t *testing.T) {
	res := Fuzz(Options{MaxRuns: 1500, Seed: 1}, bodyOf(t, "lockedcounter"))
	if len(res.Bugs) != 0 {
		t.Fatalf("fuzzer 'found' %d bugs in a correct program: %v", len(res.Bugs), res.Bugs[0].Result)
	}
}
