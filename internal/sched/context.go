package sched

import (
	"fmt"
	"strings"
	"time"

	"mtbench/internal/core"
)

// tc is the controlled runtime's implementation of core.T. One tc wraps
// one virtual thread; all operations route through the thread's
// scheduler. Each thread embeds its tc, so handing the program its
// context allocates nothing.
type tc struct {
	th *thread
}

var _ core.T = (*tc)(nil)

func (c *tc) ID() core.ThreadID { return c.th.id }
func (c *tc) Name() string      { return c.th.name }

func (c *tc) Go(name string, fn func(t core.T)) core.Handle {
	th, s := c.th, c.th.sc
	loc, locID := s.progLoc()
	th.prePoint(core.OpFork, name, 0, loc)
	child := s.spawn(name, fn)
	s.emit(th, core.OpFork, core.NoObject, name, child.nameID, int64(child.id), 0, loc, locID)
	return &child.hv
}

func (c *tc) Yield() {
	th, s := c.th, c.th.sc
	loc, locID := s.progLoc()
	th.prePoint(core.OpYield, "", 0, loc)
	s.emit(th, core.OpYield, core.NoObject, "", 0, 0, 0, loc, locID)
}

func (c *tc) Sleep(d time.Duration) {
	th, s := c.th, c.th.sc
	loc, locID := s.progLoc()
	th.prePoint(core.OpSleep, "", 0, loc)
	s.emit(th, core.OpSleep, core.NoObject, "", 0, int64(d), 0, loc, locID)
	if d <= 0 {
		return
	}
	th.wakeAt = s.now() + int64(d)
	th.state = tSleeping
	s.sleepers++
	th.park()
}

func (c *tc) Assert(cond bool, format string, args ...any) {
	if cond {
		return
	}
	loc, locID := core.CallerLocationID(1)
	c.fail(loc, locID, format, args...)
}

func (c *tc) Failf(format string, args ...any) {
	loc, locID := core.CallerLocationID(1)
	c.fail(loc, locID, format, args...)
}

// lazyFormat is the zero-allocation fast path for the verb-free
// common case: a format with no arguments and no '%' is its own
// result, byte for byte; anything else (including stray or escaped
// verbs with no args) goes through Sprintf exactly as before.
func lazyFormat(format string, args []any) string {
	if len(args) == 0 && !strings.ContainsRune(format, '%') {
		return format
	}
	return fmt.Sprintf(format, args...)
}

func (c *tc) fail(loc core.Location, locID uint32, format string, args ...any) {
	th, s := c.th, c.th.sc
	msg := lazyFormat(format, args)
	s.emit(th, core.OpFail, core.NoObject, msg, 0, 0, 0, loc, locID)
	core.FailNow(core.Failure{Msg: msg, Thread: th.id, Loc: loc})
}

// Outcome appends a fragment to the run's outcome accumulator. Plain
// fragments skip formatting entirely (see lazyFormat) — programs that
// report constant outcomes inside loops stop allocating per call — and
// the accumulator is a reused byte buffer joined with ';' exactly as
// the old per-fragment string slice was.
func (c *tc) Outcome(format string, args ...any) {
	th, s := c.th, c.th.sc
	loc, locID := s.progLoc()
	frag := lazyFormat(format, args)
	if s.nOutcomes > 0 {
		s.outcomeBuf = append(s.outcomeBuf, ';')
	}
	s.outcomeBuf = append(s.outcomeBuf, frag...)
	s.nOutcomes++
	s.emit(th, core.OpOutcome, core.NoObject, frag, 0, 0, 0, loc, locID)
}

// The object constructors hand out arena-recycled objects in creation
// order (see the scheduler's object arenas): the Nth NewMutex of a run
// reuses the Nth mutex slot, fully reinitialized. Only one virtual
// thread runs at a time, so the cursor bumps are race-free and the
// slot sequence is deterministic per schedule.

// reuseNameID returns an arena slot's cached intern handle when the
// slot is reinitialized under the same name it carried last run — the
// common case for deterministic bodies, where the Nth object of every
// run has the same name — avoiding the global intern-table lookup on
// the per-run object-creation path.
func reuseNameID(prevName string, prevID uint32, name string) uint32 {
	if prevID != 0 && prevName == name {
		return prevID
	}
	return core.InternName(name)
}

func (c *tc) NewMutex(name string) core.Mutex {
	s := c.th.sc
	s.objSeq++
	if s.nMus == len(s.mus) {
		s.mus = append(s.mus, &mutex{})
	}
	m := s.mus[s.nMus]
	s.nMus++
	*m = mutex{id: s.objSeq, name: name, nameID: reuseNameID(m.name, m.nameID, name), sc: s, holder: core.NoThread}
	return m
}

func (c *tc) NewRWMutex(name string) core.RWMutex {
	s := c.th.sc
	s.objSeq++
	if s.nRWs == len(s.rws) {
		s.rws = append(s.rws, &rwmutex{})
	}
	w := s.rws[s.nRWs]
	s.nRWs++
	readers := w.readers
	clear(readers)
	*w = rwmutex{id: s.objSeq, name: name, nameID: reuseNameID(w.name, w.nameID, name), sc: s, writer: core.NoThread, readers: readers}
	return w
}

func (c *tc) NewCond(name string, mu core.Mutex) core.Cond {
	s := c.th.sc
	m, ok := mu.(*mutex)
	if !ok {
		panic("sched: NewCond requires a mutex created by this runtime")
	}
	s.objSeq++
	if s.nConds == len(s.conds) {
		s.conds = append(s.conds, &cond{})
	}
	cd := s.conds[s.nConds]
	s.nConds++
	eligible := cd.eligible
	clear(eligible)
	*cd = cond{id: s.objSeq, name: name, nameID: reuseNameID(cd.name, cd.nameID, name), sc: s, mu: m, waiters: cd.waiters[:0], eligible: eligible}
	return cd
}

func (c *tc) NewInt(name string, init int64) core.IntVar {
	return c.th.sc.newIntVar(name, init, false)
}

func (c *tc) NewAtomicInt(name string, init int64) core.IntVar {
	return c.th.sc.newIntVar(name, init, true)
}

func (s *scheduler) newIntVar(name string, init int64, atomic bool) core.IntVar {
	s.objSeq++
	if s.nInts == len(s.ints) {
		s.ints = append(s.ints, &intvar{})
	}
	v := s.ints[s.nInts]
	s.nInts++
	*v = intvar{id: s.objSeq, name: name, nameID: reuseNameID(v.name, v.nameID, name), sc: s, val: init, atomic: atomic}
	return v
}

func (c *tc) NewRef(name string) core.RefVar {
	s := c.th.sc
	s.objSeq++
	if s.nRefs == len(s.refs) {
		s.refs = append(s.refs, &refvar{})
	}
	v := s.refs[s.nRefs]
	s.nRefs++
	*v = refvar{id: s.objSeq, name: name, nameID: reuseNameID(v.name, v.nameID, name), sc: s}
	return v
}

func (c *tc) NewWaitGroup(name string) core.WaitGroup {
	s := c.th.sc
	s.objSeq++
	if s.nWGs == len(s.wgs) {
		s.wgs = append(s.wgs, &waitgroup{})
	}
	w := s.wgs[s.nWGs]
	s.nWGs++
	*w = waitgroup{id: s.objSeq, name: name, nameID: reuseNameID(w.name, w.nameID, name), sc: s}
	return w
}

func (c *tc) NewChan(name string, capn int) core.Chan {
	s := c.th.sc
	s.objSeq++
	if s.nChans == len(s.chans) {
		s.chans = append(s.chans, &channel{})
	}
	ch := s.chans[s.nChans]
	s.nChans++
	*ch = channel{id: s.objSeq, name: name, nameID: reuseNameID(ch.name, ch.nameID, name), sc: s,
		capn: capn, buf: ch.buf[:0], sendq: ch.sendq[:0]}
	return ch
}

// handle implements core.Handle for controlled threads. Each thread
// embeds the handle for its own joiners, so Go allocates nothing for
// it.
type handle struct {
	child *thread
}

func (h *handle) TID() core.ThreadID { return h.child.id }

func (h *handle) Join(t core.T) {
	c := t.(*tc)
	th, s := c.th, c.th.sc
	loc, locID := s.progLoc()
	th.joining = h.child
	th.prePoint(core.OpJoin, h.child.name, h.child.nameID, loc)
	for h.child.state != tDone {
		th.blockOn(blockReason{
			kind: blockJoin,
			name: h.child.name,
			src:  h.child,
		})
	}
	s.emit(th, core.OpJoin, core.NoObject, h.child.name, h.child.nameID, int64(h.child.id), 0, loc, locID)
}

// blockReady implements blockSrc for join waits.
func (th *thread) blockReady(*blockReason) bool { return th.state == tDone }

// blockHolder implements blockSrc for join waits; the joined thread is
// not a lock holder, so no wait-for edge is reported.
func (th *thread) blockHolder(*blockReason) core.ThreadID { return core.NoThread }
