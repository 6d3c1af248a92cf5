package core

import (
	"slices"
	"testing"
)

// TestBugLog pins the shared bug ledger: dedup by signature keeping the
// first, deep copies that survive reuse of the source result, Index
// order regardless of Add order, and the empty-log conventions.
func TestBugLog(t *testing.T) {
	var log BugLog
	if got := log.FirstBugIndex(); got != -1 {
		t.Fatalf("FirstBugIndex on empty log = %d, want -1", got)
	}
	if sigs := log.Signatures(); sigs == nil || len(sigs) != 0 {
		t.Fatalf("Signatures on empty log = %#v, want empty non-nil", sigs)
	}

	// A pooled-runner-style result: the caller reuses it after Add.
	src := &Result{
		Verdict:     VerdictFail,
		Failure:     &Failure{Msg: "zeta", Thread: 1},
		FinishOrder: []string{"t1", "t2"},
		Schedule:    []ThreadID{0, 1, 1, 0},
	}
	if !log.Add(src, 7) {
		t.Fatal("first Add of a signature reported a duplicate")
	}
	// Same signature, different schedule: the first bug stays.
	dup := &Result{Verdict: VerdictFail, Failure: &Failure{Msg: "zeta", Thread: 1}, Schedule: []ThreadID{1}}
	if log.Add(dup, 9) {
		t.Fatal("second Add of a signature reported a new bug")
	}
	if len(log.Bugs) != 1 || log.Bugs[0].Index != 7 || len(log.Bugs[0].Schedule) != 4 {
		t.Fatalf("dedup kept %+v, want the index-7 bug", log.Bugs)
	}

	// Overwrite the source the way a runner's next run would.
	src.Schedule[0] = 9
	src.FinishOrder[0] = "overwritten"
	src.Failure.Msg = "overwritten"
	kept := log.Bugs[0]
	if !slices.Equal(kept.Schedule, []ThreadID{0, 1, 1, 0}) || !slices.Equal(kept.Result.Schedule, kept.Schedule) {
		t.Fatalf("kept schedule changed with its source: %v / %v", kept.Schedule, kept.Result.Schedule)
	}
	if kept.Result.FinishOrder[0] != "t1" {
		t.Fatalf("kept FinishOrder changed with its source: %v", kept.Result.FinishOrder)
	}
	if kept.Result.Failure.Msg != "zeta" || kept.Result == src {
		t.Fatalf("kept Failure changed with its source: %q", kept.Result.Failure.Msg)
	}

	// Out-of-order Adds (concurrent workers finish runs out of order)
	// come back sorted by Index.
	log.Add(&Result{Verdict: VerdictDeadlock, DeadlockInfo: "cycle"}, 12)
	log.Add(&Result{Verdict: VerdictStepLimit}, 3)
	log.Add(&Result{Verdict: VerdictFail, Failure: &Failure{Msg: "alpha"}}, 5)
	var idx []int
	for _, b := range log.Bugs {
		idx = append(idx, b.Index)
	}
	if !slices.Equal(idx, []int{3, 5, 7, 12}) {
		t.Fatalf("bug indices = %v, want [3 5 7 12]", idx)
	}
	if got := log.FirstBugIndex(); got != 3 {
		t.Fatalf("FirstBugIndex = %d, want 3", got)
	}

	// Index order (steplimit, alpha, zeta, deadlock) is not signature
	// order, so Signatures must sort.
	want := []string{"deadlock:cycle", "fail:alpha@" + (Location{}).Key(), "fail:zeta@" + (Location{}).Key(), "steplimit"}
	if got := log.Signatures(); !slices.Equal(got, want) {
		t.Fatalf("Signatures = %q, want %q", got, want)
	}
}

// TestBugLogDuplicateAddAllocs: adding a result whose bug is already
// logged allocates nothing (no signature is formatted), for each kind
// of signature.
func TestBugLogDuplicateAddAllocs(t *testing.T) {
	results := []*Result{
		{Verdict: VerdictFail, Failure: &Failure{Msg: "lost update", Loc: Location{File: "prog.go", Line: 35}}},
		{Verdict: VerdictDeadlock, DeadlockInfo: "t1 waits t2; t2 waits t1"},
		{Verdict: VerdictStepLimit},
	}
	var log BugLog
	for i, r := range results {
		log.Add(r, i+1)
	}
	n := testing.AllocsPerRun(100, func() {
		for _, r := range results {
			if log.Add(r, 9) {
				t.Fatal("a duplicate Add reported a new bug")
			}
		}
	})
	if n != 0 {
		t.Fatalf("duplicate Add allocates %.1f objects, want 0", n)
	}
}

// TestBugKeyFields: results share a BugLog key exactly when they share
// a BugSignature, field by field: each field the signature reads
// separates two keys, and every other field leaves them equal.
func TestBugKeyFields(t *testing.T) {
	fail := func(msg, file string, line int) *Result {
		return &Result{Verdict: VerdictFail, Failure: &Failure{Msg: msg, Loc: Location{File: file, Line: line}}}
	}
	base := fail("lost update", "prog.go", 35)
	for _, tc := range []struct {
		name string
		a, b *Result
	}{
		{"same failure", base, fail("lost update", "prog.go", 35)},
		{"message", base, fail("lost", "prog.go", 35)},
		{"file", base, fail("lost update", "other.go", 35)},
		{"line", base, fail("lost update", "prog.go", 36)},
		{"thread and function", base, &Result{Verdict: VerdictFail, Steps: 9,
			Failure: &Failure{Msg: "lost update", Thread: 2, Loc: Location{File: "prog.go", Line: 35, Fn: "f"}}}},
		{"failure vs bare fail verdict", &Result{Verdict: VerdictFail}, fail("", "", 0)},
		{"deadlock info", &Result{Verdict: VerdictDeadlock, DeadlockInfo: "a"}, &Result{Verdict: VerdictDeadlock, DeadlockInfo: "b"}},
		{"timeout info", &Result{Verdict: VerdictTimeout, DeadlockInfo: "a"}, &Result{Verdict: VerdictTimeout, DeadlockInfo: "b"}},
		{"verdict", &Result{Verdict: VerdictStepLimit}, &Result{Verdict: VerdictTimeout}},
	} {
		sameKey := keyOf(tc.a) == keyOf(tc.b)
		sameSig := BugSignature(tc.a) == BugSignature(tc.b)
		if sameKey != sameSig {
			t.Errorf("%s: same key %v, same signature %v (%q, %q)", tc.name, sameKey, sameSig, BugSignature(tc.a), BugSignature(tc.b))
		}
	}
}
