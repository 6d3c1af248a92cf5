// Package race implements the data-race detection technologies of
// §2.2: the Eraser lockset algorithm, a DJIT+-style vector-clock
// happens-before detector, and a hybrid of the two. Every detector is a
// core.Listener, so the same implementation runs online (attached to a
// run) and offline (fed a recorded trace via trace.Replay) — the
// on-line/off-line duality the paper describes, with the trade-off
// moved to where it belongs: overhead during the run versus trace
// storage.
//
// The detectors differ exactly along the axis §2.2 highlights: "the
// ability to detect user implemented synchronization is different".
// The happens-before detector can be told to respect atomic
// (Java-volatile-style) variables as synchronization; the lockset
// detector cannot, and reports the corresponding false alarms.
package race

import (
	"fmt"
	"slices"
	"sort"

	"mtbench/internal/core"
)

// Warning is one reported (potential) race.
type Warning struct {
	Detector string
	Var      string
	Obj      core.ObjectID
	// Kind is "write-write" or "read-write" for happens-before
	// detectors, "lockset-empty" for Eraser.
	Kind string
	// Prior and Access are the two conflicting program points (Prior
	// may be zero when the earlier site is unknown).
	Prior  core.Location
	Access core.Location
	// Threads are the two threads involved (second is the accessor).
	Threads [2]core.ThreadID
}

// String renders the warning one-line.
func (w Warning) String() string {
	return fmt.Sprintf("[%s] %s race on %q: t%d@%s vs t%d@%s",
		w.Detector, w.Kind, w.Var, w.Threads[0], w.Prior.Key(), w.Threads[1], w.Access.Key())
}

// Detector is a race detector usable online and offline.
type Detector interface {
	core.Listener
	Name() string
	// Warnings returns the deduplicated warnings so far.
	Warnings() []Warning
	// WarnedVars returns the sorted set of variable names warned about
	// (the unit the benchmark's false-alarm accounting uses).
	WarnedVars() []string
	// Reset clears all state for a fresh run.
	Reset()
}

// warnStore deduplicates warnings by (variable, access location, kind).
type warnStore struct {
	warnings []Warning
	seen     map[warnKey]bool
}

// warnKey is a warning's dedup identity; the access site counts by
// file and line, as Location.Key renders it.
type warnKey struct {
	v, file string
	line    int
	kind    string
}

func (s *warnStore) add(w Warning) {
	key := warnKey{w.Var, w.Access.File, w.Access.Line, w.Kind}
	if s.seen[key] {
		return
	}
	if s.seen == nil {
		s.seen = make(map[warnKey]bool)
	}
	s.seen[key] = true
	s.warnings = append(s.warnings, w)
}

func (s *warnStore) list() []Warning { return s.warnings }

func (s *warnStore) vars() []string {
	set := map[string]bool{}
	for _, w := range s.warnings {
		set[w.Var] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (s *warnStore) reset() {
	s.warnings = nil
	s.seen = nil
}

// lockState derives each thread's held-lock sets from the sync event
// stream; both detectors consume it. Reader/writer locks contribute to
// held (protecting reads) and, when write-held, to heldWrite
// (protecting writes) — Eraser's rwlock refinement. The sets are
// indexed by thread slot and emptied in place at every run start.
type lockState struct {
	slots     threadSlots
	held      lockSets
	heldWrite lockSets
}

func (ls *lockState) reset() {
	ls.slots.reset()
	ls.held.reset()
	ls.heldWrite.reset()
}

// apply updates the held sets from a sync event.
func (ls *lockState) apply(ev *core.Event) {
	u := ls.slots.slot(ev.Thread)
	switch ev.Op {
	case core.OpLock:
		if ev.Value == 1 { // acquired (0 = failed TryLock)
			ls.held.add(u, ev.Obj)
			ls.heldWrite.add(u, ev.Obj)
		}
	case core.OpUnlock:
		ls.held.remove(u, ev.Obj)
		ls.heldWrite.remove(u, ev.Obj)
	case core.OpRLock:
		ls.held.add(u, ev.Obj)
	case core.OpRUnlock:
		ls.held.remove(u, ev.Obj)
	}
}

// locksOf returns the set protecting an access: all held locks for a
// read, write-held locks for a write. The caller must not keep it.
func (ls *lockState) locksOf(t core.ThreadID, write bool) []core.ObjectID {
	u := ls.slots.slot(t)
	if write {
		return ls.heldWrite.of(u)
	}
	return ls.held.of(u)
}

// lockSets holds one set of lock ids per thread slot.
type lockSets [][]core.ObjectID

func (ls lockSets) of(u int) []core.ObjectID {
	if u < len(ls) {
		return ls[u]
	}
	return nil
}

func (ls *lockSets) add(u int, o core.ObjectID) {
	for len(*ls) <= u {
		*ls = append(*ls, nil)
	}
	if !slices.Contains((*ls)[u], o) {
		(*ls)[u] = append((*ls)[u], o)
	}
}

func (ls lockSets) remove(u int, o core.ObjectID) {
	if u < len(ls) {
		if i := slices.Index(ls[u], o); i >= 0 {
			ls[u] = slices.Delete(ls[u], i, i+1)
		}
	}
}

func (ls lockSets) reset() {
	for u := range ls {
		ls[u] = ls[u][:0]
	}
}

// intersect keeps the members of dst that other also holds.
func intersect(dst, other []core.ObjectID) []core.ObjectID {
	return slices.DeleteFunc(dst, func(l core.ObjectID) bool { return !slices.Contains(other, l) })
}
