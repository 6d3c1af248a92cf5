package race

import (
	"mtbench/internal/core"
	"mtbench/internal/vclock"
)

// hbShadow is the per-variable happens-before shadow state: the last
// write/read clocks per thread plus the access sites needed for
// two-sided warnings, indexed by thread slot like the clocks.
type hbShadow struct {
	writes   vclock.VC // writes[u] = clock of u's last write
	reads    vclock.VC // reads[u]  = clock of u's last read
	writeLoc []core.Location
	readLoc  []core.Location
}

// Reset empties the shadow, keeping its storage.
func (sh *hbShadow) Reset() {
	sh.writes.Reset()
	sh.reads.Reset()
	sh.writeLoc = sh.writeLoc[:0]
	sh.readLoc = sh.readLoc[:0]
}

// HB is the vector-clock happens-before detector in the DJIT+ family:
// it reports an access that is concurrent (unordered by the
// happens-before relation induced by locks, fork/join and —
// optionally — atomic variables) with a previous conflicting access.
//
// Unlike the lockset detector it only reports races the observed
// execution actually exhibits, so it has no false positives with
// respect to that execution; the price is sensitivity to the observed
// interleaving.
type HB struct {
	// RespectAtomics makes atomic-variable accesses induce
	// happens-before edges (release on write, acquire on read). With it
	// off, the detector treats user-implemented synchronization as
	// ordinary data — the configuration axis §2.2 discusses.
	RespectAtomics bool

	// Clocks and shadows are indexed by thread slot (see threadSlots)
	// and object id, and reset in place at every run start.
	slots   threadSlots
	threads table[vclock.VC, *vclock.VC] // by thread slot
	locks   table[vclock.VC, *vclock.VC]
	atomics table[vclock.VC, *vclock.VC]
	vars    table[hbShadow, *hbShadow]
	warns   warnStore
	events  int64
}

// NewHB returns a happens-before detector; respectAtomics selects
// whether atomic variables count as synchronization.
func NewHB(respectAtomics bool) *HB {
	d := &HB{RespectAtomics: respectAtomics}
	d.Reset()
	return d
}

// Name implements Detector.
func (d *HB) Name() string {
	if d.RespectAtomics {
		return "hb"
	}
	return "hb-noatomics"
}

// Reset implements Detector.
func (d *HB) Reset() {
	d.RunStart(core.RunInfo{})
	d.warns.reset()
	d.events = 0
}

// RunStart implements core.RunObserver: clocks and shadow state are
// per execution (thread and object ids restart every run) and are
// cleared in place; warnings accumulate across the campaign.
func (d *HB) RunStart(core.RunInfo) {
	d.slots.reset()
	d.threads.reset()
	d.locks.reset()
	d.atomics.reset()
	d.vars.reset()
}

// RunEnd implements core.RunObserver.
func (d *HB) RunEnd(*core.Result) {}

// Warnings implements Detector.
func (d *HB) Warnings() []Warning { return d.warns.list() }

// WarnedVars implements Detector.
func (d *HB) WarnedVars() []string { return d.warns.vars() }

// Events returns the number of events processed.
func (d *HB) Events() int64 { return d.events }

// clock returns the vector clock of the thread in slot u, initializing
// it to tick 1 of its own component.
func (d *HB) clock(u int) *vclock.VC {
	c := d.threads.get(int64(u))
	if c.Len() == 0 {
		c.Set(core.ThreadID(u), 1)
	}
	return c
}

// OnEvent implements core.Listener.
func (d *HB) OnEvent(ev *core.Event) {
	d.events++
	u := d.slots.slot(ev.Thread)
	switch ev.Op {
	case core.OpFork:
		// Child inherits the parent's knowledge; parent ticks so
		// subsequent parent work is concurrent with the child.
		parent := d.clock(u)
		child := d.clock(d.slots.slot(core.ThreadID(ev.Value)))
		child.Join(*parent)
		parent.Tick(core.ThreadID(u))
	case core.OpJoin:
		// Joiner inherits the joined thread's final clock.
		d.clock(u).Join(*d.clock(d.slots.slot(core.ThreadID(ev.Value))))
	case core.OpLock, core.OpRLock:
		if ev.Value == 1 || ev.Op == core.OpRLock {
			d.clock(u).Join(*d.locks.get(int64(ev.Obj))) // acquire
		}
	case core.OpUnlock, core.OpRUnlock:
		// Release: publish the thread's clock into the lock, then tick.
		d.release(u, ev.Obj)
	case core.OpChanSend, core.OpChanClose:
		// A send (or close) releases the sender's knowledge into the
		// channel: everything before it happens-before the matching
		// receive.
		d.release(u, ev.Obj)
	case core.OpChanRecv:
		// A receive acquires the channel's accumulated clock.
		d.clock(u).Join(*d.locks.get(int64(ev.Obj)))
	case core.OpWGAdd:
		// Add/Done release: the work preceding a Done happens-before
		// the Wait that observes the zero counter.
		d.release(u, ev.Obj)
	case core.OpWGWait:
		// Wait acquires every contributor's published clock.
		d.clock(u).Join(*d.locks.get(int64(ev.Obj)))
	case core.OpRead, core.OpWrite:
		if d.RespectAtomics && ev.Flags.Atomic() {
			d.atomicAccess(ev, u)
			return
		}
		d.dataAccess(ev, u)
	}
}

// release publishes the clock of the thread in slot u into object o's
// clock, then ticks the thread.
func (d *HB) release(u int, o core.ObjectID) {
	ct := d.clock(u)
	d.locks.get(int64(o)).Join(*ct)
	ct.Tick(core.ThreadID(u))
}

// atomicAccess gives a volatile-style variable release/acquire
// semantics: writes publish, reads acquire.
func (d *HB) atomicAccess(ev *core.Event, u int) {
	ct := d.clock(u)
	ac := d.atomics.get(int64(ev.Obj))
	if ev.Op == core.OpWrite {
		ac.Join(*ct)
		ct.Tick(core.ThreadID(u))
	} else {
		ct.Join(*ac)
	}
}

// dataAccess checks the access by the thread in slot u against the
// variable's shadow clocks and records it.
func (d *HB) dataAccess(ev *core.Event, u int) {
	t := core.ThreadID(u)
	ct := d.clock(u)
	sh := d.vars.get(int64(ev.Obj))

	if ev.Op == core.OpWrite {
		// A write must be ordered after every prior read and write.
		if p, ok := findConcurrent(sh.writes, ct, t); ok {
			d.warn(ev, "write-write", p, sh.writeLoc[p])
		} else if p, ok := findConcurrent(sh.reads, ct, t); ok {
			d.warn(ev, "read-write", p, sh.readLoc[p])
		}
		sh.writes.Set(t, ct.Get(t))
		sh.writeLoc = setAt(sh.writeLoc, u, ev.Loc)
		return
	}

	// A read must be ordered after every prior write.
	if p, ok := findConcurrent(sh.writes, ct, t); ok {
		d.warn(ev, "read-write", p, sh.writeLoc[p])
	}
	sh.reads.Set(t, ct.Get(t))
	sh.readLoc = setAt(sh.readLoc, u, ev.Loc)
}

// findConcurrent returns the slot of a thread other than t whose
// recorded access clock is not happens-before ct.
func findConcurrent(accesses vclock.VC, ct *vclock.VC, t core.ThreadID) (int, bool) {
	for u := 0; u < accesses.Len(); u++ {
		uid := core.ThreadID(u)
		if uid == t {
			continue
		}
		if c := accesses.Get(uid); c > 0 && c > ct.Get(uid) {
			return u, true
		}
	}
	return 0, false
}

// warn reports ev's access racing with the prior access by the thread
// in slot prior at priorLoc.
func (d *HB) warn(ev *core.Event, kind string, prior int, priorLoc core.Location) {
	d.warns.add(Warning{
		Detector: d.Name(),
		Var:      ev.Name,
		Obj:      ev.Obj,
		Kind:     kind,
		Prior:    priorLoc,
		Access:   ev.Loc,
		Threads:  [2]core.ThreadID{d.slots.id(prior), ev.Thread},
	})
}
