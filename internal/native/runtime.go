// Package native is the second runtime behind core.T: benchmark
// programs run on real goroutines under the live Go scheduler, with
// every operation instrumented exactly like the controlled runtime.
// This is the mode the paper's noise makers were built for — delays
// injected at instrumentation points perturb a genuinely preemptive
// scheduler — and the mode whose replay can only be partial (§2.2),
// which experiment E3 quantifies.
//
// Design notes:
//
//   - All blocking primitives are channel-based so a run can be torn
//     down: when the watchdog fires or an oracle fails, the abort
//     channel is closed and every blocked thread unwinds. Deadlocked
//     runs therefore report VerdictTimeout without leaking goroutines.
//   - Event emission is serialized under one mutex, giving offline
//     tools the total order the trace format requires. The cost is
//     measured, not hidden: it is part of the instrumentation overhead
//     experiments E1/E8 report.
//   - Thread ids are assigned in spawn order. Programs that spawn only
//     from already-running threads may see different ids across runs;
//     that is real nondeterminism, and it is one of the reasons native
//     replay is probabilistic.
package native

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtbench/internal/core"
	"mtbench/internal/instrument"
	"mtbench/internal/noise"
)

// DefaultTimeout is the watchdog budget when Config.Timeout is zero.
const DefaultTimeout = 5 * time.Second

// GatePoint identifies an operation to a replay gate.
type GatePoint struct {
	Thread core.ThreadID
	Op     core.Op
	Name   string
}

// Gate serializes operations for partial replay: Before blocks until
// the recorded schedule says it is this operation's turn (returning an
// error to flag divergence instead of blocking forever), and After
// advances the schedule. The replay package implements it.
type Gate interface {
	Before(p GatePoint) error
	After(p GatePoint)
}

// Config configures a native run.
type Config struct {
	Listeners []core.Listener
	// Plan gates probes exactly as in the controlled runtime; a
	// suppressed probe skips noise injection and gating too, which is
	// how static pruning reduces noise-maker overhead (E8).
	Plan *instrument.Plan
	// Noise is invoked before every enabled operation (nil = no noise).
	Noise noise.Heuristic
	// Seed seeds the per-thread noise rngs.
	Seed int64
	// Timeout is the deadlock watchdog (0 = DefaultTimeout).
	Timeout time.Duration
	// TimeScale multiplies program Sleep durations (0 = 1.0).
	// Experiments shrink it to run sleep-heavy programs quickly.
	TimeScale float64
	// Gate, when set, brackets every enabled operation for replay.
	Gate Gate
	// Name labels the run for RunObserver listeners.
	Name string
}

type rt struct {
	cfg       Config
	listeners core.MultiListener
	plan      *instrument.Plan
	gate      Gate

	mu      sync.Mutex // serializes emission, registry, outcome, failure
	seq     int64
	objSeq  core.ObjectID
	threads []*ntc
	mutexes []*nmutex

	nextTID atomic.Int32
	live    atomic.Int32
	allDone chan struct{}

	abortOnce sync.Once
	aborted   atomic.Bool
	abortCh   chan struct{}

	failure     *core.Failure
	outcome     []string
	finishOrder []string
	timeScale   float64
}

// Run executes body as thread 0 on real goroutines and returns the
// result. Deadlocks surface as VerdictTimeout after cfg.Timeout.
func Run(cfg Config, body func(t core.T)) *core.Result {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1.0
	}
	r := &rt{
		cfg:       cfg,
		listeners: core.MultiListener(cfg.Listeners),
		plan:      cfg.Plan,
		gate:      cfg.Gate,
		allDone:   make(chan struct{}),
		abortCh:   make(chan struct{}),
		timeScale: cfg.TimeScale,
	}
	r.listeners.StartRun(core.RunInfo{Program: cfg.Name, Mode: "native", Seed: cfg.Seed})
	start := time.Now()

	t0 := r.newThread("main")
	r.live.Add(1)
	go r.runThread(t0, body)

	timedOut := false
	timer := time.NewTimer(cfg.Timeout)
	defer timer.Stop()
	select {
	case <-r.allDone:
	case <-timer.C:
		timedOut = true
		r.teardown()
		// Grace period for blocked threads to unwind through abortCh.
		grace := time.NewTimer(500 * time.Millisecond)
		select {
		case <-r.allDone:
		case <-grace.C:
		}
		grace.Stop()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	res := &core.Result{
		Verdict:     core.VerdictPass,
		Failure:     r.failure,
		Outcome:     strings.Join(r.outcome, ";"),
		FinishOrder: r.finishOrder,
		Events:      r.seq,
		Threads:     int(r.nextTID.Load()),
		Elapsed:     time.Since(start),
	}
	switch {
	case r.failure != nil:
		res.Verdict = core.VerdictFail
	case timedOut:
		res.Verdict = core.VerdictTimeout
		res.DeadlockInfo = r.describeStuckLocked()
	}
	r.listeners.EndRun(res)
	return res
}

// newThread allocates and registers a thread context.
func (r *rt) newThread(name string) *ntc {
	id := core.ThreadID(r.nextTID.Add(1) - 1)
	t := &ntc{
		id:   id,
		name: name,
		r:    r,
		rng:  core.NewRand(r.cfg.Seed + int64(id)*1_000_003),
		done: make(chan struct{}),
	}
	r.mu.Lock()
	r.threads = append(r.threads, t)
	r.mu.Unlock()
	return t
}

// runThread is the goroutine wrapper for a thread body.
func (r *rt) runThread(t *ntc, body func(core.T)) {
	defer func() {
		fail, aborted := core.RecoverThread(recover(), t.id)
		if fail != nil {
			r.recordFailure(fail)
		}
		if fail == nil && !aborted {
			r.mu.Lock()
			r.finishOrder = append(r.finishOrder, t.name)
			r.mu.Unlock()
			r.emit(t, core.OpEnd, core.NoObject, "", 0, 0, core.Location{})
		}
		close(t.done)
		if r.live.Add(-1) == 0 {
			close(r.allDone)
		}
	}()
	body(t)
}

// recordFailure stores the first failure and tears the run down.
func (r *rt) recordFailure(f *core.Failure) {
	r.mu.Lock()
	if r.failure == nil {
		r.failure = f
	}
	r.mu.Unlock()
	r.teardown()
}

// teardown closes the abort channel, unwinding every blocked or
// still-running thread at its next probe or blocking point.
func (r *rt) teardown() {
	r.abortOnce.Do(func() {
		r.aborted.Store(true)
		close(r.abortCh)
	})
}

// checkAbort unwinds the calling thread if the run is being torn down.
func (r *rt) checkAbort() {
	if r.aborted.Load() {
		core.AbortNow()
	}
}

// emit delivers an event under the emission lock (total order).
func (r *rt) emit(t *ntc, op core.Op, obj core.ObjectID, name string, value int64, flags core.Flags, loc core.Location) {
	if !r.plan.Enabled(op, name) {
		return
	}
	r.mu.Lock()
	r.seq++
	ev := core.Event{
		Seq:    r.seq,
		Thread: t.id,
		Op:     op,
		Obj:    obj,
		Name:   name,
		Value:  value,
		Flags:  flags,
		Loc:    loc,
	}
	r.listeners.OnEvent(&ev)
	r.mu.Unlock()
}

// newObjID allocates an object id.
func (r *rt) newObjID() core.ObjectID {
	r.mu.Lock()
	r.objSeq++
	id := r.objSeq
	r.mu.Unlock()
	return id
}

// describeStuckLocked summarizes blocked threads and held locks for
// VerdictTimeout results. Caller holds r.mu.
func (r *rt) describeStuckLocked() string {
	var parts []string
	for _, t := range r.threads {
		select {
		case <-t.done:
			continue
		default:
		}
		if b := t.blockedOn.Load(); b != nil {
			parts = append(parts, fmt.Sprintf("t%d(%s) blocked on %s", t.id, t.name, *b))
		} else {
			parts = append(parts, fmt.Sprintf("t%d(%s) running or preempted", t.id, t.name))
		}
	}
	for _, m := range r.mutexes {
		if h := m.holder.Load(); h >= 0 {
			parts = append(parts, fmt.Sprintf("mutex %q held by t%d", m.name, h))
		}
	}
	if len(parts) == 0 {
		return "timeout with no blocked threads recorded"
	}
	return strings.Join(parts, "; ")
}
