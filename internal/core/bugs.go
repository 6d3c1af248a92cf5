package core

import "slices"

// Bug is one erroneous schedule a search found.
type Bug struct {
	// Schedule is the decision sequence that exposed the bug; it
	// replays through sched.FixedSchedule or the replay package.
	Schedule []ThreadID
	Result   *Result
	// Index is the 1-based number of the run (or schedule) that
	// exposed it.
	Index int
}

// BugLog is the bug ledger every search engine and finder keeps: the
// distinct bugs found, deduplicated by BugSignature and ordered by
// Index. The zero value is an empty log. It is not synchronized;
// concurrent searches call Add under their own result lock.
type BugLog struct {
	// Bugs are the distinct failures found, ordered by Index.
	Bugs []Bug
	seen map[bugKey]bool
}

// bugKey is what BugSignature reads, unformatted, so a lookup formats
// nothing. Two results share a key exactly when they share a signature
// (short of an "@" inside a message or file name, which the formatted
// signature cannot tell apart).
type bugKey struct {
	verdict             Verdict
	failed              bool
	msg, file, deadlock string
	line                int
}

func keyOf(res *Result) bugKey {
	if f := res.Failure; f != nil {
		return bugKey{failed: true, msg: f.Msg, file: f.Loc.File, line: f.Loc.Line}
	}
	if res.Verdict == VerdictDeadlock {
		return bugKey{verdict: res.Verdict, deadlock: res.DeadlockInfo}
	}
	return bugKey{verdict: res.Verdict}
}

// Add records res, found by run index, unless a bug with the same
// signature is already logged; it reports whether the bug was new.
// A new bug is deep-copied (Schedule, FinishOrder, Failure), so the
// caller may reuse res and its buffers — a pooled runner's result is
// overwritten by its next run. The bug is inserted in Index order.
// A duplicate allocates nothing.
func (l *BugLog) Add(res *Result, index int) bool {
	key := keyOf(res)
	if l.seen[key] {
		return false
	}
	if l.seen == nil {
		l.seen = map[bugKey]bool{}
	}
	l.seen[key] = true
	keep := new(Result)
	*keep = *res
	keep.Schedule = slices.Clone(res.Schedule)
	keep.FinishOrder = slices.Clone(res.FinishOrder)
	if res.Failure != nil {
		f := *res.Failure
		keep.Failure = &f
	}
	i := len(l.Bugs)
	for i > 0 && l.Bugs[i-1].Index > index {
		i--
	}
	l.Bugs = slices.Insert(l.Bugs, i, Bug{Schedule: keep.Schedule, Result: keep, Index: index})
	return true
}

// FirstBugIndex returns the run number of the first bug, or -1 when no
// bug was found (run numbers are 1-based, so -1 is unambiguous).
func (l *BugLog) FirstBugIndex() int {
	if len(l.Bugs) == 0 {
		return -1
	}
	return l.Bugs[0].Index
}

// Signatures returns the logged bugs' BugSignatures, sorted.
func (l *BugLog) Signatures() []string {
	sigs := make([]string, len(l.Bugs))
	for i, b := range l.Bugs {
		sigs[i] = BugSignature(b.Result)
	}
	slices.Sort(sigs)
	return sigs
}
