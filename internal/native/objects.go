package native

import (
	"sync"
	"sync/atomic"

	"mtbench/internal/core"
)

// nmutex is the native mutex: a 1-slot channel semaphore, so blocked
// acquirers can also unwind on teardown.
type nmutex struct {
	id     core.ObjectID
	name   string
	r      *rt
	ch     chan struct{} // full = locked
	holder atomic.Int32  // -1 when free (informational)
}

func (m *nmutex) OID() core.ObjectID { return m.id }

func (m *nmutex) Lock(t core.T) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpLock, m.name, loc)
	select {
	case m.ch <- struct{}{}:
	default:
		// Contended path: record the block, then wait abortably.
		if en {
			nt.r.emit(nt, core.OpBlock, m.id, m.name, 0, 0, loc)
		}
		clear := nt.blockPoint("mutex " + m.name)
		select {
		case m.ch <- struct{}{}:
			clear()
		case <-nt.r.abortCh:
			clear()
			core.AbortNow()
		}
	}
	m.holder.Store(int32(nt.id))
	nt.after(en, core.OpLock, m.id, m.name, 1, 0, loc)
}

func (m *nmutex) TryLock(t core.T) bool {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpLock, m.name, loc)
	select {
	case m.ch <- struct{}{}:
		m.holder.Store(int32(nt.id))
		nt.after(en, core.OpLock, m.id, m.name, 1, 0, loc)
		return true
	default:
		nt.after(en, core.OpLock, m.id, m.name, 0, 0, loc)
		return false
	}
}

func (m *nmutex) Unlock(t core.T) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpUnlock, m.name, loc)
	if m.holder.Load() != int32(nt.id) {
		nt.failAt(loc, "unlock of mutex %s not held by caller", m.name)
	}
	m.holder.Store(-1)
	select {
	case <-m.ch:
	default:
		nt.failAt(loc, "unlock of unlocked mutex %s", m.name)
	}
	nt.after(en, core.OpUnlock, m.id, m.name, 0, 0, loc)
}

// unlockBare releases without probes (Cond.Wait's internal release;
// events are emitted by the caller).
func (m *nmutex) unlockBare() {
	m.holder.Store(-1)
	<-m.ch
}

// lockBare acquires abortably without probes.
func (m *nmutex) lockBare(nt *ntc) {
	clear := nt.blockPoint("mutex " + m.name)
	select {
	case m.ch <- struct{}{}:
		clear()
	case <-nt.r.abortCh:
		clear()
		core.AbortNow()
	}
	m.holder.Store(int32(nt.id))
}

// ncond is the native condition variable with Java monitor semantics,
// built on per-waiter channels so waits are abortable and signals with
// no waiter are lost.
type ncond struct {
	id   core.ObjectID
	name string
	r    *rt
	mu   *nmutex

	wmu     sync.Mutex
	waiters []chan struct{}
}

func (c *ncond) OID() core.ObjectID { return c.id }

func (c *ncond) checkHeld(nt *ntc, op string, loc core.Location) {
	if c.mu.holder.Load() != int32(nt.id) {
		nt.failAt(loc, "%s on cond %s without holding mutex %s", op, c.name, c.mu.name)
	}
}

func (c *ncond) Wait(t core.T) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpWait, c.name, loc)
	c.checkHeld(nt, "wait", loc)
	if en {
		nt.r.emit(nt, core.OpWait, c.id, c.name, 0, 0, loc)
		if nt.r.gate != nil {
			// Advance the gate before blocking: the signaler's own gated
			// operations must be able to proceed while we wait.
			nt.r.gate.After(GatePoint{Thread: nt.id, Op: core.OpWait, Name: c.name})
		}
	}
	ch := make(chan struct{})
	c.wmu.Lock()
	c.waiters = append(c.waiters, ch)
	c.wmu.Unlock()
	c.mu.unlockBare()
	nt.r.emit(nt, core.OpUnlock, c.mu.id, c.mu.name, 0, 0, loc)

	clear := nt.blockPoint("cond " + c.name)
	select {
	case <-ch:
		clear()
	case <-nt.r.abortCh:
		clear()
		core.AbortNow()
	}
	if en {
		nt.r.emit(nt, core.OpAwake, c.id, c.name, 0, 0, loc)
	}
	c.mu.lockBare(nt)
	nt.r.emit(nt, core.OpLock, c.mu.id, c.mu.name, 1, 0, loc)
}

func (c *ncond) Signal(t core.T) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpSignal, c.name, loc)
	c.checkHeld(nt, "signal", loc)
	c.wmu.Lock()
	n := len(c.waiters)
	if n > 0 {
		ch := c.waiters[0]
		c.waiters = c.waiters[1:]
		close(ch)
	}
	c.wmu.Unlock()
	nt.after(en, core.OpSignal, c.id, c.name, int64(n), 0, loc)
}

func (c *ncond) Broadcast(t core.T) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpBroadcast, c.name, loc)
	c.checkHeld(nt, "broadcast", loc)
	c.wmu.Lock()
	n := len(c.waiters)
	for _, ch := range c.waiters {
		close(ch)
	}
	c.waiters = nil
	c.wmu.Unlock()
	nt.after(en, core.OpBroadcast, c.id, c.name, int64(n), 0, loc)
}

// nrwmutex is the native reader/writer lock: internal state under a
// short-held mutex, waiters parked on personal channels (abortable),
// with writer preference.
type nrwmutex struct {
	id   core.ObjectID
	name string
	r    *rt

	m       sync.Mutex
	readers int
	writing bool
	writerQ []chan struct{}
	readerQ []chan struct{}
}

func (w *nrwmutex) OID() core.ObjectID { return w.id }

func (w *nrwmutex) Lock(t core.T) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpLock, w.name, loc)
	w.m.Lock()
	if !w.writing && w.readers == 0 {
		w.writing = true
		w.m.Unlock()
	} else {
		ch := make(chan struct{})
		w.writerQ = append(w.writerQ, ch)
		w.m.Unlock()
		if en {
			nt.r.emit(nt, core.OpBlock, w.id, w.name, 0, 0, loc)
		}
		clear := nt.blockPoint("rwmutex " + w.name)
		select {
		case <-ch: // writing already granted by releaser
			clear()
		case <-nt.r.abortCh:
			clear()
			core.AbortNow()
		}
	}
	nt.after(en, core.OpLock, w.id, w.name, 1, 0, loc)
}

func (w *nrwmutex) Unlock(t core.T) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpUnlock, w.name, loc)
	w.m.Lock()
	if !w.writing {
		w.m.Unlock()
		nt.failAt(loc, "unlock of rwmutex %s not write-held", w.name)
	}
	w.writing = false
	w.release()
	w.m.Unlock()
	nt.after(en, core.OpUnlock, w.id, w.name, 0, 0, loc)
}

func (w *nrwmutex) RLock(t core.T) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpRLock, w.name, loc)
	w.m.Lock()
	if !w.writing && len(w.writerQ) == 0 {
		w.readers++
		w.m.Unlock()
	} else {
		ch := make(chan struct{})
		w.readerQ = append(w.readerQ, ch)
		w.m.Unlock()
		if en {
			nt.r.emit(nt, core.OpBlock, w.id, w.name, 0, 0, loc)
		}
		clear := nt.blockPoint("rwmutex " + w.name)
		select {
		case <-ch: // readers already incremented by releaser
			clear()
		case <-nt.r.abortCh:
			clear()
			core.AbortNow()
		}
	}
	nt.after(en, core.OpRLock, w.id, w.name, 1, 0, loc)
}

func (w *nrwmutex) RUnlock(t core.T) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpRUnlock, w.name, loc)
	w.m.Lock()
	if w.readers == 0 {
		w.m.Unlock()
		nt.failAt(loc, "runlock of rwmutex %s with no readers", w.name)
	}
	w.readers--
	if w.readers == 0 {
		w.release()
	}
	w.m.Unlock()
	nt.after(en, core.OpRUnlock, w.id, w.name, 0, 0, loc)
}

// release grants the lock to waiters (writer-preferring). Caller holds
// w.m and has already cleared its own hold.
func (w *nrwmutex) release() {
	if w.writing || w.readers > 0 {
		return
	}
	if len(w.writerQ) > 0 {
		ch := w.writerQ[0]
		w.writerQ = w.writerQ[1:]
		w.writing = true
		close(ch)
		return
	}
	for _, ch := range w.readerQ {
		w.readers++
		close(ch)
	}
	w.readerQ = nil
}

// nintvar is the native shared integer: individual accesses are atomic
// (JVM-style), sequences are not.
type nintvar struct {
	id     core.ObjectID
	name   string
	r      *rt
	val    atomic.Int64
	atomic bool
}

func (v *nintvar) OID() core.ObjectID { return v.id }
func (v *nintvar) IsAtomic() bool     { return v.atomic }

func (v *nintvar) flags() core.Flags {
	if v.atomic {
		return core.FlagAtomic
	}
	return 0
}

func (v *nintvar) Load(t core.T) int64 {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpRead, v.name, loc)
	val := v.val.Load()
	nt.after(en, core.OpRead, v.id, v.name, val, v.flags(), loc)
	return val
}

func (v *nintvar) Store(t core.T, val int64) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpWrite, v.name, loc)
	v.val.Store(val)
	nt.after(en, core.OpWrite, v.id, v.name, val, v.flags(), loc)
}

func (v *nintvar) Add(t core.T, delta int64) int64 {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpWrite, v.name, loc)
	val := v.val.Add(delta)
	nt.after(en, core.OpWrite, v.id, v.name, val, v.flags(), loc)
	return val
}

func (v *nintvar) CompareAndSwap(t core.T, old, new int64) bool {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpWrite, v.name, loc)
	ok := v.val.CompareAndSwap(old, new)
	if ok {
		nt.after(en, core.OpWrite, v.id, v.name, new, v.flags(), loc)
	} else {
		nt.after(en, core.OpRead, v.id, v.name, v.val.Load(), v.flags(), loc)
	}
	return ok
}

// nwaitgroup is the native sync.WaitGroup equivalent, built on a
// replaceable done channel (instead of sync.WaitGroup itself) so Wait
// is abortable on teardown.
type nwaitgroup struct {
	id    core.ObjectID
	name  string
	r     *rt
	mu    sync.Mutex
	count int
	done  chan struct{} // closed while count == 0
}

func (w *nwaitgroup) OID() core.ObjectID { return w.id }

func (w *nwaitgroup) Add(t core.T, delta int) { w.add(t, delta, progLoc()) }
func (w *nwaitgroup) Done(t core.T)           { w.add(t, -1, progLoc()) }

// add takes the location from its caller: progLoc here would resolve
// to Add or Done instead of the program.
func (w *nwaitgroup) add(t core.T, delta int, loc core.Location) {
	nt := t.(*ntc)
	en := nt.before(core.OpWGAdd, w.name, loc)
	w.mu.Lock()
	was := w.count
	w.count += delta
	count := w.count
	if count < 0 {
		w.mu.Unlock()
		nt.failAt(loc, "negative counter on waitgroup %s", w.name)
	}
	if was == 0 && count > 0 {
		w.done = make(chan struct{})
	}
	if was > 0 && count == 0 {
		close(w.done)
	}
	w.mu.Unlock()
	nt.after(en, core.OpWGAdd, w.id, w.name, int64(count), 0, loc)
}

func (w *nwaitgroup) Wait(t core.T) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpWGWait, w.name, loc)
	w.mu.Lock()
	done := w.done
	blocked := w.count > 0
	w.mu.Unlock()
	if blocked {
		if en {
			nt.r.emit(nt, core.OpBlock, w.id, w.name, 0, 0, loc)
		}
		clear := nt.blockPoint("waitgroup " + w.name)
		select {
		case <-done:
			clear()
		case <-nt.r.abortCh:
			clear()
			core.AbortNow()
		}
	}
	nt.after(en, core.OpWGWait, w.id, w.name, 0, 0, loc)
}

// nchan is the native channel: a real Go channel of any, so send on
// closed and double close surface as the runtime's own panics (which
// the thread recovery converts into failing oracles) and blocked
// operations stay abortable through the select on abortCh.
type nchan struct {
	id   core.ObjectID
	name string
	r    *rt
	capn int
	ch   chan any
}

func (c *nchan) OID() core.ObjectID { return c.id }
func (c *nchan) Cap() int           { return c.capn }

func (c *nchan) Send(t core.T, v any) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpChanSend, c.name, loc)
	select {
	case c.ch <- v:
	default:
		if en {
			nt.r.emit(nt, core.OpBlock, c.id, c.name, 0, 0, loc)
		}
		clear := nt.blockPoint("chan-send " + c.name)
		select {
		case c.ch <- v:
			clear()
		case <-nt.r.abortCh:
			clear()
			core.AbortNow()
		}
	}
	nt.after(en, core.OpChanSend, c.id, c.name, int64(len(c.ch)), 0, loc)
}

func (c *nchan) Recv(t core.T) (any, bool) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpChanRecv, c.name, loc)
	var v any
	var ok bool
	select {
	case v, ok = <-c.ch:
	default:
		if en {
			nt.r.emit(nt, core.OpBlock, c.id, c.name, 0, 0, loc)
		}
		clear := nt.blockPoint("chan-recv " + c.name)
		select {
		case v, ok = <-c.ch:
			clear()
		case <-nt.r.abortCh:
			clear()
			core.AbortNow()
		}
	}
	val := int64(0)
	if ok {
		val = 1
	} else {
		v = nil
	}
	nt.after(en, core.OpChanRecv, c.id, c.name, val, 0, loc)
	return v, ok
}

func (c *nchan) Close(t core.T) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpChanClose, c.name, loc)
	close(c.ch) // double close: the runtime panic becomes a failing oracle
	nt.after(en, core.OpChanClose, c.id, c.name, int64(len(c.ch)), 0, loc)
}

// nrefvar is the native shared reference cell.
type nrefvar struct {
	id   core.ObjectID
	name string
	r    *rt
	mu   sync.Mutex
	val  any
}

func (v *nrefvar) OID() core.ObjectID { return v.id }

func (v *nrefvar) Load(t core.T) any {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpRead, v.name, loc)
	v.mu.Lock()
	val := v.val
	v.mu.Unlock()
	nt.after(en, core.OpRead, v.id, v.name, 0, 0, loc)
	return val
}

func (v *nrefvar) Store(t core.T, val any) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpWrite, v.name, loc)
	v.mu.Lock()
	v.val = val
	v.mu.Unlock()
	nt.after(en, core.OpWrite, v.id, v.name, 0, 0, loc)
}
