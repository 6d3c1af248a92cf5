package race

import "mtbench/internal/core"

// Eraser state machine states (Savage et al., TOCS 1997).
type lsState uint8

const (
	lsVirgin lsState = iota
	lsExclusive
	lsShared
	lsSharedModified
)

// lsShadow is the per-variable shadow word.
type lsShadow struct {
	state     lsState
	owner     core.ThreadID   // Exclusive owner
	candidate []core.ObjectID // C(v), a set
	lastLoc   core.Location   // most recent access site
	lastTid   core.ThreadID
	reported  bool
}

// Reset returns the shadow to the virgin state, keeping its storage.
func (sh *lsShadow) Reset() {
	*sh = lsShadow{candidate: sh.candidate[:0]}
}

// Lockset is the Eraser detector: it warns when a variable reaches the
// shared-modified state with an empty candidate lockset. It has the
// classic strengths (no dependence on the observed interleaving) and
// the classic weakness the paper calls out: it cannot see
// happens-before edges from user-implemented synchronization, so
// atomics-based protocols produce false alarms.
type Lockset struct {
	ls     lockState
	vars   table[lsShadow, *lsShadow]
	warns  warnStore
	events int64
}

// NewLockset returns a fresh Eraser detector.
func NewLockset() *Lockset { return &Lockset{} }

// Name implements Detector.
func (d *Lockset) Name() string { return "lockset" }

// Reset implements Detector.
func (d *Lockset) Reset() {
	d.RunStart(core.RunInfo{})
	d.warns.reset()
	d.events = 0
}

// RunStart implements core.RunObserver: shadow state is per execution
// (thread and object ids restart every run) and is cleared in place;
// warnings accumulate across the campaign.
func (d *Lockset) RunStart(core.RunInfo) {
	d.ls.reset()
	d.vars.reset()
}

// RunEnd implements core.RunObserver.
func (d *Lockset) RunEnd(*core.Result) {}

// Warnings implements Detector.
func (d *Lockset) Warnings() []Warning { return d.warns.list() }

// WarnedVars implements Detector.
func (d *Lockset) WarnedVars() []string { return d.warns.vars() }

// Events returns how many events the detector processed (overhead
// accounting).
func (d *Lockset) Events() int64 { return d.events }

// OnEvent implements core.Listener.
func (d *Lockset) OnEvent(ev *core.Event) {
	d.events++
	if ev.Op.IsSync() {
		d.ls.apply(ev)
		return
	}
	if !ev.Op.IsAccess() {
		return
	}
	write := ev.Op == core.OpWrite
	sh := d.vars.get(int64(ev.Obj))
	d.access(sh, ev, write)
	sh.lastLoc = ev.Loc
	sh.lastTid = ev.Thread
}

// access runs one step of the Eraser state machine.
func (d *Lockset) access(sh *lsShadow, ev *core.Event, write bool) {
	t := ev.Thread
	switch sh.state {
	case lsVirgin:
		sh.state = lsExclusive
		sh.owner = t
	case lsExclusive:
		if t == sh.owner {
			return
		}
		// Second thread: initialize C(v) with the current locks and
		// move to shared or shared-modified.
		sh.candidate = append(sh.candidate[:0], d.ls.locksOf(t, write)...)
		if write {
			sh.state = lsSharedModified
		} else {
			sh.state = lsShared
		}
		d.check(sh, ev)
	case lsShared:
		sh.candidate = intersect(sh.candidate, d.ls.locksOf(t, write))
		if write {
			sh.state = lsSharedModified
		}
		d.check(sh, ev)
	case lsSharedModified:
		sh.candidate = intersect(sh.candidate, d.ls.locksOf(t, write))
		d.check(sh, ev)
	}
}

// check reports a warning when the variable is shared-modified with an
// empty candidate set.
func (d *Lockset) check(sh *lsShadow, ev *core.Event) {
	if sh.state != lsSharedModified || len(sh.candidate) > 0 || sh.reported {
		return
	}
	sh.reported = true
	d.warns.add(Warning{
		Detector: d.Name(),
		Var:      ev.Name,
		Obj:      ev.Obj,
		Kind:     "lockset-empty",
		Prior:    sh.lastLoc,
		Access:   ev.Loc,
		Threads:  [2]core.ThreadID{sh.lastTid, ev.Thread},
	})
}
