package native

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"mtbench/internal/core"
	"mtbench/internal/noise"
)

// ntc is the native runtime's implementation of core.T: one per
// goroutine-backed thread.
type ntc struct {
	id   core.ThreadID
	name string
	r    *rt
	rng  *rand.Rand
	done chan struct{}
	// blockedOn names what the thread is currently blocked on, for the
	// watchdog's deadlock report.
	blockedOn atomic.Pointer[string]
}

var _ core.T = (*ntc)(nil)

func (t *ntc) ID() core.ThreadID { return t.id }
func (t *ntc) Name() string      { return t.name }

// progLoc resolves the benchmark program's call site (program -> ntc
// method -> here).
func progLoc() core.Location {
	loc, _ := core.CallerLocationID(2)
	return loc
}

// before runs the pre-operation half of a probe: abort check, noise
// injection, replay gating. It reports whether the probe is enabled so
// the post-operation half can skip emission symmetrically.
func (t *ntc) before(op core.Op, name string, loc core.Location) bool {
	t.r.checkAbort()
	if !t.r.plan.Enabled(op, name) {
		return false
	}
	if h := t.r.cfg.Noise; h != nil {
		p := noise.Point{Thread: t.id, Op: op, Name: name, Loc: loc}
		t.applyNoise(h.Decide(&p, t.rng))
	}
	if t.r.gate != nil {
		// A diverged gate stops enforcing; the run continues free-form
		// and the replay layer reports the divergence.
		_ = t.r.gate.Before(GatePoint{Thread: t.id, Op: op, Name: name})
	}
	return true
}

// after runs the post-operation half: emission and gate advancement.
func (t *ntc) after(enabled bool, op core.Op, obj core.ObjectID, name string, value int64, flags core.Flags, loc core.Location) {
	if !enabled {
		return
	}
	t.r.emit(t, op, obj, name, value, flags, loc)
	if t.r.gate != nil {
		t.r.gate.After(GatePoint{Thread: t.id, Op: op, Name: name})
	}
}

// applyNoise executes a noise decision with real delays.
func (t *ntc) applyNoise(d noise.Decision) {
	switch {
	case d.Sleep > 0:
		time.Sleep(d.Sleep)
	case d.Yield:
		runtime.Gosched()
	case d.Spin > 0:
		for i := 0; i < d.Spin; i++ {
			runtime.Gosched() // cheap scheduling pressure
		}
	case d.Switch:
		runtime.Gosched()
	}
}

// blockPoint publishes what the thread is about to block on and returns
// a func that clears it.
func (t *ntc) blockPoint(what string) func() {
	t.blockedOn.Store(&what)
	return func() { t.blockedOn.Store(nil) }
}

func (t *ntc) Go(name string, fn func(t core.T)) core.Handle {
	loc := progLoc()
	en := t.before(core.OpFork, name, loc)
	child := t.r.newThread(name)
	t.r.live.Add(1)
	t.after(en, core.OpFork, core.NoObject, name, int64(child.id), 0, loc)
	go t.r.runThread(child, fn)
	return &nhandle{child: child}
}

func (t *ntc) Yield() {
	loc := progLoc()
	en := t.before(core.OpYield, "", loc)
	runtime.Gosched()
	t.after(en, core.OpYield, core.NoObject, "", 0, 0, loc)
}

func (t *ntc) Sleep(d time.Duration) {
	loc := progLoc()
	en := t.before(core.OpSleep, "", loc)
	t.after(en, core.OpSleep, core.NoObject, "", int64(d), 0, loc)
	if d <= 0 {
		runtime.Gosched()
		return
	}
	scaled := time.Duration(float64(d) * t.r.timeScale)
	if scaled <= 0 {
		scaled = time.Nanosecond
	}
	clear := t.blockPoint("sleep")
	defer clear()
	timer := time.NewTimer(scaled)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-t.r.abortCh:
		core.AbortNow()
	}
}

func (t *ntc) Assert(cond bool, format string, args ...any) {
	if cond {
		return
	}
	loc, _ := core.CallerLocationID(1)
	t.failAt(loc, format, args...)
}

func (t *ntc) Failf(format string, args ...any) {
	loc, _ := core.CallerLocationID(1)
	t.failAt(loc, format, args...)
}

func (t *ntc) failAt(loc core.Location, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	t.r.emit(t, core.OpFail, core.NoObject, msg, 0, 0, loc)
	core.FailNow(core.Failure{Msg: msg, Thread: t.id, Loc: loc})
}

func (t *ntc) Outcome(format string, args ...any) {
	loc := progLoc()
	frag := fmt.Sprintf(format, args...)
	t.r.mu.Lock()
	t.r.outcome = append(t.r.outcome, frag)
	t.r.mu.Unlock()
	t.r.emit(t, core.OpOutcome, core.NoObject, frag, 0, 0, loc)
}

func (t *ntc) NewMutex(name string) core.Mutex {
	m := &nmutex{id: t.r.newObjID(), name: name, r: t.r, ch: make(chan struct{}, 1)}
	m.holder.Store(-1)
	t.r.mu.Lock()
	t.r.mutexes = append(t.r.mutexes, m)
	t.r.mu.Unlock()
	return m
}

func (t *ntc) NewRWMutex(name string) core.RWMutex {
	return &nrwmutex{id: t.r.newObjID(), name: name, r: t.r}
}

func (t *ntc) NewCond(name string, mu core.Mutex) core.Cond {
	m, ok := mu.(*nmutex)
	if !ok {
		panic("native: NewCond requires a mutex created by this runtime")
	}
	return &ncond{id: t.r.newObjID(), name: name, r: t.r, mu: m}
}

func (t *ntc) NewInt(name string, init int64) core.IntVar {
	v := &nintvar{id: t.r.newObjID(), name: name, r: t.r}
	v.val.Store(init)
	return v
}

func (t *ntc) NewAtomicInt(name string, init int64) core.IntVar {
	v := &nintvar{id: t.r.newObjID(), name: name, r: t.r, atomic: true}
	v.val.Store(init)
	return v
}

func (t *ntc) NewRef(name string) core.RefVar {
	return &nrefvar{id: t.r.newObjID(), name: name, r: t.r}
}

func (t *ntc) NewWaitGroup(name string) core.WaitGroup {
	w := &nwaitgroup{id: t.r.newObjID(), name: name, r: t.r, done: make(chan struct{})}
	close(w.done) // counter starts at zero: Wait must not block
	return w
}

func (t *ntc) NewChan(name string, capn int) core.Chan {
	return &nchan{id: t.r.newObjID(), name: name, r: t.r, capn: capn, ch: make(chan any, capn)}
}

// Select maps core.SelectCase arms onto a reflect.Select over the
// underlying Go channels, plus the runtime's abort channel so blocked
// selects unwind on teardown. The live Go scheduler breaks ties, so —
// unlike the controlled runtime — the choice is nondeterministic.
func (t *ntc) Select(cases []core.SelectCase) (int, any, bool) {
	loc := progLoc()
	if len(cases) == 0 {
		t.failAt(loc, "select with no cases")
	}
	name := ""
	scs := make([]reflect.SelectCase, 0, len(cases)+1)
	for _, c := range cases {
		ch, ok := c.Ch.(*nchan)
		if !ok {
			panic("native: Select case channel from a different runtime")
		}
		if name == "" {
			name = ch.name
		}
		sc := reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch.ch)}
		if c.Send {
			sc.Dir = reflect.SelectSend
			val := c.Val
			sc.Send = reflect.ValueOf(&val).Elem()
		}
		scs = append(scs, sc)
	}
	abortIdx := len(scs)
	scs = append(scs, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(t.r.abortCh)})
	en := t.before(core.OpSelect, name, loc)
	clear := t.blockPoint("select " + name)
	i, v, ok := reflect.Select(scs)
	clear()
	if i == abortIdx {
		core.AbortNow()
	}
	ch := cases[i].Ch.(*nchan)
	if cases[i].Send {
		t.after(en, core.OpChanSend, ch.id, ch.name, int64(len(ch.ch)), 0, loc)
		return i, nil, true
	}
	val := int64(0)
	var rv any
	if ok {
		val = 1
		rv = v.Interface()
	}
	t.after(en, core.OpChanRecv, ch.id, ch.name, val, 0, loc)
	return i, rv, ok
}

// nhandle implements core.Handle for native threads.
type nhandle struct {
	child *ntc
}

func (h *nhandle) TID() core.ThreadID { return h.child.id }

func (h *nhandle) Join(t core.T) {
	nt := t.(*ntc)
	loc := progLoc()
	en := nt.before(core.OpJoin, h.child.name, loc)
	clear := nt.blockPoint("join " + h.child.name)
	select {
	case <-h.child.done:
	case <-nt.r.abortCh:
		clear()
		core.AbortNow()
	}
	clear()
	nt.after(en, core.OpJoin, core.NoObject, h.child.name, int64(h.child.id), 0, loc)
}
