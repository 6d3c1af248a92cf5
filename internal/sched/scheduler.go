// Package sched is the controlled runtime: a deterministic cooperative
// scheduler that runs benchmark programs as virtual threads and takes a
// scheduling decision at every instrumented operation. A pluggable
// Strategy makes those decisions, which is how random testing, noise
// making, replay and systematic state-space exploration all share one
// substrate (§2.2 of the paper: replay and VeriSoft-style exploration
// both need to "force interleavings").
//
// Exactly one virtual thread runs at a time. Each virtual thread is a
// coroutine (iter.Pull): the driver (the goroutine that called Run)
// resumes the current thread, and a thread that hands control to
// another yields back to the driver, which resumes the successor. A
// resume is a direct goroutine switch, with no channel and no trip
// through the Go scheduler's run queues. Because only the running
// thread touches shared state,
// the scheduler, the program's emulated variables, and all listeners
// execute race-free without locking, and a run is a pure function of
// (program, strategy decisions) — the property replay and exploration
// depend on.
//
// Throughput matters as much as control: every search tool in the
// framework (noise, exploration, fuzzing, the campaign matrix) is
// bounded by how many short runs per second this package executes, so
// the run hot path is built for reuse. A Runner keeps its virtual
// threads' coroutines and per-run buffers alive across runs
// (back-to-back runs pay no coroutine spawn/teardown and
// near-zero allocation), source locations are captured only when
// something subscribed can observe them, and listener fan-out is
// skipped for event classes no listener wants. Reuse never changes
// results: a pooled run is byte-identical to a fresh one (pinned by
// TestRunnerPoolingDeterminism across the whole program repository).
package sched

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"mtbench/internal/core"
	"mtbench/internal/instrument"
)

// DefaultMaxSteps bounds a run's scheduling decisions when
// Config.MaxSteps is zero; it converts livelocks and runaway loops into
// VerdictStepLimit results.
const DefaultMaxSteps = 2_000_000

// DefaultTimeQuantum is the virtual time that passes per scheduling
// step. Sleep durations are measured against this clock, so a
// Sleep(1ms) parks the thread for 1000 steps of other threads' work by
// default — long enough that sleep-based synchronization usually works,
// short enough that an adversarial strategy can outrun it.
const DefaultTimeQuantum = time.Microsecond

// Config configures a controlled run.
type Config struct {
	// Strategy picks the next thread at each scheduling point.
	// Nil defaults to Nonpreemptive(), the deterministic scheduler that
	// §1 of the paper blames for unit tests never hitting concurrency
	// bugs.
	Strategy Strategy
	// Listeners observe the event stream.
	Listeners []core.Listener
	// Plan gates which probes fire; nil instruments everything.
	Plan *instrument.Plan
	// MaxSteps bounds scheduling decisions (0 = DefaultMaxSteps).
	MaxSteps int64
	// TimeQuantum is the virtual time per step (0 = DefaultTimeQuantum).
	TimeQuantum time.Duration
	// Name labels the run for RunObserver listeners.
	Name string
	// Seed is reported to RunObserver listeners (the scheduler itself
	// is deterministic; randomness lives in strategies).
	Seed int64
	// RecordSchedule captures the per-step decisions in the Result for
	// replay. Exploration and replay set it; bulk statistics runs leave
	// it off to save allocation.
	RecordSchedule bool
	// SkipTiming leaves Result.Elapsed zero instead of reading the wall
	// clock twice per run. Search loops that execute millions of short
	// runs and never read Elapsed set it to keep time.Now off the
	// per-run path.
	SkipTiming bool
	// FastForward replays this recorded decision prefix before the
	// strategy sees its first decision: each entry is consumed without a
	// strategy round trip, listener fan-out or runnable-set scan, at
	// the nonpreemptive coast-mode cost — the delta replay that
	// positions a pooled runner at a previously visited branch. Step
	// counting, schedule recording and the virtual clock advance
	// exactly as if the strategy had made these picks. The scheduler
	// copies the slice at Start; the caller may reuse it immediately.
	FastForward []core.ThreadID
	// FFCheck, when non-nil, is the position digest the run must match
	// at the first decision after the fast-forward; a mismatch (a
	// nondeterministic program drifting off the recorded prefix) makes
	// the run VerdictDiverged instead of silently continuing from the
	// wrong state. The value is copied at Start.
	FFCheck *Snapshot
}

// Run executes body as thread 0 under the configured strategy and
// returns the run's result. It never panics on program misbehaviour:
// assertion failures, deadlocks, step-limit hits and stray panics all
// become verdicts.
//
// Run constructs a fresh Runner per call and tears it down afterwards;
// code that executes many runs back to back (search loops, worker
// pools) should hold a Runner and call its Run method instead, which
// reuses the coroutines and buffers across runs.
func Run(cfg Config, body func(t core.T)) *core.Result {
	r := NewRunner()
	defer r.Close()
	return r.Run(cfg, body)
}

// Runner executes controlled runs back to back, reusing the expensive
// parts between them: virtual-thread coroutines stay suspended in a
// free pool instead of being respawned,
// and the per-run slices (runnable sets, recorded schedule, outcome
// and finish-order accumulators) keep their backing arrays. A Runner
// is single-threaded — one run at a time — but successive runs may
// come from different goroutines, and a run through a reused Runner is
// byte-identical to one through a fresh scheduler.
//
// Ownership caveat: when Config.RecordSchedule is set, the returned
// Result.Schedule aliases the Runner's internal buffer and is only
// valid until the next run; callers that retain it (or retain the
// Result) across runs must clone it first. The package-level Run has
// no such caveat since its Runner is never reused. Results returned by
// Start are pooled more aggressively: the Result itself and its
// FinishOrder alias per-Runner buffers reused by the next run.
type Runner struct {
	s *scheduler
}

// NewRunner returns an empty Runner. The pool warms up on first use;
// call Close when done to release the pooled coroutines (a dropped
// Runner's coroutines are not otherwise reclaimed).
func NewRunner() *Runner {
	return &Runner{s: &scheduler{}}
}

// Run executes body under cfg to completion, reusing the Runner's
// pooled state. See Runner for the Result.Schedule ownership caveat;
// everything else in the Result is valid indefinitely.
func (r *Runner) Run(cfg Config, body func(t core.T)) *core.Result {
	p := r.Start(cfg, body)
	// Start's Result is pooled (overwritten by the next run); Run's
	// contract is a caller-owned Result, so unpool it here.
	res := new(core.Result)
	*res = *p
	if len(res.FinishOrder) > 0 {
		res.FinishOrder = append([]string(nil), res.FinishOrder...)
	}
	return res
}

// Start executes a controlled run to completion and returns its
// Result without copying it: the Result and its FinishOrder (and
// Schedule, under RecordSchedule) alias per-Runner buffers, valid only
// until the next Start/Run on this Runner, and must be cloned to be
// retained. Search loops that read a Result and move on use Start to
// keep the run allocation-free.
func (r *Runner) Start(cfg Config, body func(t core.T)) *core.Result {
	s := r.s
	if s.closed {
		panic("sched: Start on a closed Runner")
	}
	if s.running {
		panic("sched: Runner used for two runs at once")
	}
	s.reset(cfg)
	s.running = true
	if !cfg.SkipTiming {
		s.start = time.Now()
	} else {
		s.start = time.Time{}
	}
	s.listeners.StartRun(core.RunInfo{Program: s.cfg.Name, Mode: "controlled", Seed: s.cfg.Seed})
	s.spawn("main", body)
	return s.drive()
}

// Close releases the Runner's pooled coroutines. It is a no-op on a
// Runner whose last run panicked mid-flight (the pool is
// unrecoverable then; the coroutines are leaked exactly as a
// fresh-scheduler panic leaked them).
func (r *Runner) Close() {
	s := r.s
	if s.closed {
		return
	}
	s.closed = true
	if s.running || len(s.threads) > 0 {
		return
	}
	for _, th := range s.free {
		th.stop()
	}
	s.free = nil
	for _, th := range s.exited {
		// Stopping a thread whose body called runtime.Goexit finishes
		// that Goexit, and stop re-raises it in its caller: give it a
		// goroutine of its own to end.
		go th.stop()
	}
	s.exited = nil
}

type tstate uint8

const (
	tReady tstate = iota
	tRunning
	tBlocked
	tSleeping
	tDone
)

// blockKind says what a blocked thread is waiting for, for deadlock
// reporting.
type blockKind uint8

const (
	blockNone blockKind = iota
	blockLock
	blockRW     // write-acquire of a reader/writer lock
	blockRWRead // read-acquire of a reader/writer lock
	blockCond
	blockJoin
	blockWG       // WaitGroup.Wait on a nonzero counter
	blockChanSend // parked sender waiting for a receiver or buffer space
	blockChanRecv // receiver waiting for a value or a close
	blockSelect   // Select with no ready arm
)

// blockSrc evaluates a blocked thread's guard. Synchronization objects
// implement it directly (instead of handing the scheduler closures) so
// blocking allocates nothing on the hot path.
type blockSrc interface {
	// blockReady reports whether the blocked thread could make progress
	// now. The driver evaluates it when building the runnable set; the
	// blocked operation re-checks its own guard after being resumed.
	blockReady(r *blockReason) bool
	// blockHolder names the current holder for wait-for cycle
	// construction (NoThread when unknown or multiple, e.g. readers).
	blockHolder(r *blockReason) core.ThreadID
}

type blockReason struct {
	kind blockKind
	obj  core.ObjectID
	name string
	src  blockSrc
	// tid is the waiting thread's id, for guards that are per-waiter
	// (condition-variable eligibility).
	tid core.ThreadID
}

// stepStatus classifies a scheduling decision's outcome for the
// thread (or driver) that took it: hand control to the returned thread
// (stepGo), or the run is finished (stepOver).
type stepStatus uint8

const (
	stepGo stepStatus = iota
	stepOver
)

// engineBug is the panic payload for scheduler-internal invariant
// violations (a strategy picking a non-runnable thread, idling with no
// sleeper). Scheduling decisions execute on the virtual threads, under
// the same recover that converts program panics into failed runs —
// engine bugs must NOT take that path (they would silently skew
// statistics as ordinary VerdictFail results), so runBody intercepts
// this type and ferries it back to the driver, which re-panics it on
// the Run caller's goroutine.
type engineBug struct{ msg string }

// Error makes an escaped engineBug panic print its message.
func (e engineBug) Error() string { return e.msg }

// stepSafe runs step, converting an engineBug panic into a return
// value for callers that cannot rely on runBody's recover (the driver
// at kickoff, and finishHandoff, which runs inside runBody's deferred
// function after recover has already been consumed).
func (s *scheduler) stepSafe() (next *thread, st stepStatus, bug *engineBug) {
	defer func() {
		if rec := recover(); rec != nil {
			eb, ok := rec.(engineBug)
			if !ok {
				panic(rec)
			}
			bug, st = &engineBug{eb.msg}, stepOver
		}
	}()
	next, st = s.step()
	return
}

type thread struct {
	id     core.ThreadID
	name   string
	nameID uint32
	state  tstate
	block  blockReason
	// wakeAt is the virtual deadline for sleeping threads.
	wakeAt int64
	// next resumes the thread's coroutine and returns when the thread
	// yields control back to the driver; stop ends a pooled coroutine
	// (Close). yield is the coroutine's side of the switch, bound when
	// the coroutine first runs.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// abort is set by teardown before it resumes a live thread: the
	// thread unwinds its body instead of going on.
	abort bool
	// exited marks a thread whose body called runtime.Goexit; its
	// coroutine is held inside that Goexit and never rejoins the pool.
	exited bool
	// locksHeld is the ordered multiset of mutexes the thread holds;
	// listeners and deadlock reporting read it.
	locksHeld []core.ObjectID
	// pending describes the operation the thread will perform next if
	// picked; noise heuristics read it through Choice.
	pending PendingOp
	body    func(core.T)
	sc      *scheduler
	// tcv and hv are the thread's reusable core.T facade and join
	// handle, so neither allocates per run.
	tcv tc
	hv  handle
}

// PendingOp describes the operation a thread is about to perform at a
// scheduling point.
type PendingOp struct {
	Op   core.Op
	Name string
	// NameID is the interned handle for Name (0 when the operation has
	// no interned name); strategies that test set membership per
	// scheduling point key on it instead of hashing the string.
	NameID uint32
	Loc    core.Location
}

// Footprint is the operation's reduction-layer identity: its kind plus
// the interned handle of the object it targets. The exploration
// engine's independence relation (core.Footprint.Commutes) keys on
// it. It allocates nothing — both fields are already carried by the
// pending op.
func (p PendingOp) Footprint() core.Footprint {
	return core.Footprint{Op: p.Op, Obj: p.NameID}
}

type scheduler struct {
	cfg       Config
	listeners core.MultiListener
	evMask    core.OpMask
	plan      *instrument.Plan
	strategy  Strategy
	// capLoc gates per-operation source-location capture: on only when
	// an attached listener may read locations (core.LocationIndifferent
	// lets location-blind listeners opt out) or the strategy declared
	// LocationAware, because resolving a caller PC is the single most
	// expensive part of an otherwise-listener-free probe.
	capLoc bool
	// sleepers counts threads in state tSleeping (whether or not their
	// deadline has passed), so the per-step CanIdle probe can skip the
	// all-threads scan in the common no-sleeps case.
	sleepers int

	threads []*thread
	// free holds pooled threads whose coroutines are suspended waiting
	// for their next assignment; exited holds threads whose body called
	// runtime.Goexit, until Close releases them.
	free   []*thread
	exited []*thread
	// cur is the thread the driver resumes next. over is set by the
	// thread that takes the run-ending decision (clean completion,
	// failure, deadlock, step limit, divergence): control has left the
	// virtual threads for good.
	cur  *thread
	over bool

	seq     int64
	steps   int64
	objSeq  core.ObjectID
	nowNs   int64 // virtual clock
	quantum int64

	failure      *core.Failure
	deadlockInfo string
	stepLimitHit bool
	diverged     bool
	// bug carries an engineBug recovered on a virtual thread until the
	// driver re-panics it.
	bug *engineBug

	// outcomeBuf accumulates T.Outcome fragments ';'-joined;
	// finishOrder and schedule keep their backing arrays across runs.
	outcomeBuf  []byte
	nOutcomes   int
	finishOrder []string
	schedule    []core.ThreadID

	runnableBuf []core.ThreadID
	evScratch   core.Event
	hasEvent    bool

	// choice is the reusable decision-point value handed to the
	// strategy each step (with PendingOf bound once per run): built
	// fresh per step it escapes through the interface call and puts a
	// heap allocation on every scheduling decision.
	choice Choice
	// pendingOfFn/footprintOfFn/snapshotToFn cache the method-value
	// closures handed out through Choice (binding one allocates; see
	// reset).
	pendingOfFn   func(core.ThreadID) PendingOp
	footprintOfFn func(core.ThreadID) core.Footprint
	snapshotToFn  func(*Snapshot)

	// start is the run's wall-clock start (zero under SkipTiming); res
	// is the pooled Result returned by Start.
	start time.Time
	res   core.Result

	// coasting is set when the strategy returned CoastID: the rest of
	// the run follows the built-in nonpreemptive rule without strategy
	// round trips or schedule recording.
	coasting bool
	// Fast-forward state (Config.FastForward): ffDec is the scheduler-
	// owned copy of the prefix (the caller's slice may be reused as
	// soon as Start is called), ffPos the replay cursor, ffQuiet suppresses
	// listener fan-out until the first post-fast-forward decision
	// (those events are covered by the restored listener state), and
	// ffCheck/hasFFCheck carry the position digest verified there.
	ffDec      []core.ThreadID
	ffPos      int
	ffQuiet    bool
	ffCheck    Snapshot
	hasFFCheck bool

	// outcomeTab interns Result.Outcome strings and dlTab interns
	// deadlock descriptions: searches revisit the same few outcome and
	// deadlock shapes millions of times, and both strings are built in
	// reusable byte buffers, so interning makes them allocation-free in
	// steady state. Both tables are capped defensively.
	outcomeTab map[string]string
	dlTab      map[string]string

	// Reusable deadlock-description scratch (see describeDeadlock).
	dlArena []byte
	dlParts []dlPart
	dlBuf   []byte
	dlWaits []core.ThreadID
	dlSeen  []int32
	dlPath  []core.ThreadID
	dlCyc   []core.ThreadID

	// Object arenas: the synchronization objects a body creates
	// (NewMutex, NewInt, ...) are recycled across runs in creation
	// order — only one virtual thread runs at a time, so the cursors
	// need no locking, and every object is fully reinitialized when it
	// is handed out. This removes the per-run allocations that dominate
	// pooled-run cost (a body's object set is rebuilt on every one of a
	// search's thousands of executions).
	mus    []*mutex
	rws    []*rwmutex
	conds  []*cond
	ints   []*intvar
	refs   []*refvar
	wgs    []*waitgroup
	chans  []*channel
	nMus   int
	nRWs   int
	nConds int
	nInts  int
	nRefs  int
	nWGs   int
	nChans int

	running bool
	closed  bool
}

// dlPart is one pre-sort deadlock description fragment, as a byte
// range into the scheduler's dlArena.
type dlPart struct{ beg, end int }

// reset reconfigures the scheduler for a new run, truncating the
// reusable buffers and zeroing all per-run state.
func (s *scheduler) reset(cfg Config) {
	if cfg.Strategy == nil {
		cfg.Strategy = Nonpreemptive()
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if cfg.TimeQuantum <= 0 {
		cfg.TimeQuantum = DefaultTimeQuantum
	}
	s.cfg = cfg
	s.listeners = core.MultiListener(cfg.Listeners)
	s.evMask = s.listeners.WantMask()
	s.plan = cfg.Plan
	s.strategy = cfg.Strategy
	s.capLoc = s.listeners.NeedLocations()
	if !s.capLoc {
		if la, ok := cfg.Strategy.(LocationAware); ok && la.NeedsLocations() {
			s.capLoc = true
		}
	}

	s.cur = nil
	s.over = false
	s.seq = 0
	s.steps = 0
	s.objSeq = 0
	s.nowNs = 0
	s.quantum = int64(cfg.TimeQuantum)
	s.failure = nil
	s.deadlockInfo = ""
	s.bug = nil
	s.stepLimitHit = false
	s.diverged = false
	s.outcomeBuf = s.outcomeBuf[:0]
	s.nOutcomes = 0
	s.finishOrder = s.finishOrder[:0]
	s.schedule = s.schedule[:0]
	s.evScratch = core.Event{}
	s.hasEvent = false
	s.coasting = false
	s.ffDec = append(s.ffDec[:0], cfg.FastForward...)
	s.ffPos = 0
	s.hasFFCheck = cfg.FFCheck != nil
	// An FFCheck with an empty prefix (a snapshot taken at decision 0)
	// still verifies at the first decision.
	s.ffQuiet = len(s.ffDec) > 0 || s.hasFFCheck
	if s.hasFFCheck {
		s.ffCheck = *cfg.FFCheck
	}
	// Drop the config's aliases: the scheduler owns its copies and
	// must not pin the caller's (reused) buffers.
	s.cfg.FastForward = nil
	s.cfg.FFCheck = nil
	s.sleepers = 0
	s.nMus, s.nRWs, s.nConds, s.nInts, s.nRefs = 0, 0, 0, 0, 0
	s.nWGs, s.nChans = 0, 0
	// The accessor closures are cached on first use: binding a method
	// value allocates, and reset runs once per pooled run.
	if s.pendingOfFn == nil {
		s.pendingOfFn = s.pendingOf
		s.footprintOfFn = s.footprintOf
		s.snapshotToFn = s.captureSnapshot
	}
	s.choice = Choice{PendingOf: s.pendingOfFn, FootprintOf: s.footprintOfFn, SnapshotTo: s.snapshotToFn}
}

// progLoc resolves the benchmark program's call site (2 frames above
// the tc/object method that calls it), or reports the zero location
// when nothing in this run observes locations.
func (s *scheduler) progLoc() (core.Location, uint32) {
	if !s.capLoc {
		return core.Location{}, 0
	}
	return core.CallerLocationID(2)
}

// drive takes the run's first scheduling decision on the driver
// goroutine, then resumes the current thread until the virtual threads
// report the run over. A thread takes every later decision itself and
// yields back here only to switch: it names its successor in s.cur,
// and the driver resumes that one.
func (s *scheduler) drive() *core.Result {
	next, st, bug := s.stepSafe()
	switch {
	case bug != nil:
		s.bug = bug
	case st == stepGo:
		s.cur = next
		for !s.over {
			s.cur.next()
		}
	}
	return s.finish()
}

// finish tears the completed run down — unwinding every live thread
// and re-panicking a ferried engine bug on the driver goroutine — and
// builds its Result in the pooled slot. Outcome and DeadlockInfo are
// interned strings and FinishOrder aliases the per-run accumulator, so
// a completed run allocates nothing here in steady state.
func (s *scheduler) finish() *core.Result {
	s.abortAll()
	if s.bug != nil {
		// An engine bug surfaced on a virtual thread; abortAll above
		// already unwound the other threads, so the pool is
		// intact — now fail as loudly as the old driver loop did.
		msg := s.bug.msg
		s.recycle()
		panic(msg)
	}

	res := &s.res
	*res = core.Result{
		Verdict:      core.VerdictPass,
		Failure:      s.failure,
		DeadlockInfo: s.deadlockInfo,
		Outcome:      s.internOutcome(),
		Steps:        s.steps,
		Events:       s.seq,
		Threads:      len(s.threads),
		Diverged:     s.diverged,
	}
	if len(s.finishOrder) > 0 {
		res.FinishOrder = s.finishOrder
	}
	if !s.start.IsZero() {
		res.Elapsed = time.Since(s.start)
	}
	if s.cfg.RecordSchedule {
		res.Schedule = s.schedule
	}
	switch {
	case s.failure != nil:
		res.Verdict = core.VerdictFail
	case s.deadlockInfo != "":
		res.Verdict = core.VerdictDeadlock
	case s.diverged:
		res.Verdict = core.VerdictDiverged
	case s.stepLimitHit:
		res.Verdict = core.VerdictStepLimit
	}
	s.listeners.EndRun(res)

	s.recycle()
	return res
}

// recycle returns the finished run's threads to the pool for the next
// run, except those whose body called runtime.Goexit.
func (s *scheduler) recycle() {
	for _, th := range s.threads {
		if th.exited {
			s.exited = append(s.exited, th)
		} else {
			s.free = append(s.free, th)
		}
	}
	s.threads = s.threads[:0]
	s.running = false
}

// internOutcome returns the run's outcome accumulator as an interned
// string: repeated outcomes (a search executes the same few program
// behaviours over and over) hit the table without allocating.
func (s *scheduler) internOutcome() string {
	if len(s.outcomeBuf) == 0 {
		return ""
	}
	if v, ok := s.outcomeTab[string(s.outcomeBuf)]; ok {
		return v
	}
	v := string(s.outcomeBuf)
	if s.outcomeTab == nil {
		s.outcomeTab = make(map[string]string, 64)
	}
	if len(s.outcomeTab) < 1<<12 {
		s.outcomeTab[v] = v
	}
	return v
}

// step is one scheduling decision, executed inline by whoever holds
// control (the driver at kickoff, the yielding virtual thread
// everywhere else, so a decision that keeps the current thread
// switches nothing). It returns the thread control should pass to, or
// stepOver when the run is finished (clean completion, failure,
// deadlock, step limit, or strategy divergence).
func (s *scheduler) step() (next *thread, st stepStatus) {
	if s.ffPos < len(s.ffDec) {
		return s.ffStep()
	}
	if s.coasting {
		return s.coastStep()
	}
	for {
		if s.failure != nil {
			return nil, stepOver
		}
		runnable := s.runnable()
		if len(runnable) == 0 {
			if s.advanceTime() {
				continue
			}
			if s.liveCount() == 0 {
				return nil, stepOver // clean completion
			}
			s.deadlockInfo = s.describeDeadlock()
			return nil, stepOver
		}
		if s.steps >= s.cfg.MaxSteps {
			s.stepLimitHit = true
			return nil, stepOver
		}
		if s.ffQuiet {
			// First decision after a fast-forward: resume listener
			// fan-out and verify the restored position. The check runs
			// here — after the silent time warps above — because the
			// digest was captured at the matching point of the recorded
			// run, with any pre-decision warps already applied.
			s.ffQuiet = false
			if s.hasFFCheck && !s.matchSnapshot(&s.ffCheck) {
				s.diverged = true
				return nil, stepOver
			}
		}

		choice := &s.choice
		choice.Step = s.steps
		choice.Runnable = runnable
		choice.Current = core.NoThread
		choice.LastEvent = nil
		if s.cur != nil {
			choice.Current = s.cur.id
		}
		if s.hasEvent {
			choice.LastEvent = &s.evScratch
		}
		choice.CanIdle = s.hasFutureSleeper()
		pick := s.strategy.Pick(choice)
		switch pick {
		case core.NoThread:
			s.diverged = true
			return nil, stepOver
		case CoastID:
			// The strategy hands the rest of the run to the built-in
			// nonpreemptive rule, starting with this decision; coasted
			// decisions are counted but not recorded.
			s.coasting = true
			s.steps++
			if s.cur != nil && slices.Contains(runnable, s.cur.id) {
				return s.cur, stepGo
			}
			return s.threadByID(runnable[0]), stepGo
		}
		s.steps++
		if s.cfg.RecordSchedule {
			s.schedule = append(s.schedule, pick)
		}
		if pick == IdleID {
			if !choice.CanIdle || !s.advanceTime() {
				panic(engineBug{fmt.Sprintf("sched: strategy %s idled with no sleeper", s.strategy.Name())})
			}
			continue
		}
		th := s.threadByID(pick)
		if th == nil || !slices.Contains(runnable, pick) {
			// A strategy bug: fail loudly rather than silently skewing
			// statistics (engineBug propagates to the Run caller).
			panic(engineBug{fmt.Sprintf("sched: strategy %s picked non-runnable thread %d (runnable %v)",
				s.strategy.Name(), pick, runnable)})
		}
		return th, stepGo
	}
}

// coastStep is the post-CoastID decision path: follow the
// nonpreemptive rule (current thread while it can run, lowest-id
// runnable otherwise) without consulting the strategy or recording the
// schedule. Step counting, virtual-time advancement, deadlock
// detection and the step limit match step exactly, so a coasted run
// ends with the verdict and outcome a nonpreemptive fallback strategy
// would have produced. When the current thread merely yielded at a
// scheduling point (tReady) nothing else can have changed state, so
// the fast path skips even the runnable scan and hands control
// straight back — no coroutine switch.
func (s *scheduler) coastStep() (next *thread, st stepStatus) {
	if s.failure != nil {
		return nil, stepOver
	}
	if s.cur != nil && s.cur.state == tReady {
		if s.steps >= s.cfg.MaxSteps {
			s.stepLimitHit = true
			return nil, stepOver
		}
		s.steps++
		return s.cur, stepGo
	}
	for {
		runnable := s.runnable()
		if len(runnable) == 0 {
			if s.advanceTime() {
				continue
			}
			if s.liveCount() == 0 {
				return nil, stepOver // clean completion
			}
			s.deadlockInfo = s.describeDeadlock()
			return nil, stepOver
		}
		if s.steps >= s.cfg.MaxSteps {
			s.stepLimitHit = true
			return nil, stepOver
		}
		s.steps++
		if s.cur != nil && slices.Contains(runnable, s.cur.id) {
			return s.cur, stepGo
		}
		return s.threadByID(runnable[0]), stepGo
	}
}

// runnable returns the ids of threads that can run now, in id order:
// ready threads, blocked threads whose guard is satisfied, and sleeping
// threads whose deadline passed. The returned slice is the scheduler's
// scratch buffer, valid until the next call.
func (s *scheduler) runnable() []core.ThreadID {
	out := s.runnableBuf[:0]
	for _, th := range s.threads {
		switch th.state {
		case tReady:
			out = append(out, th.id)
		case tBlocked:
			if th.block.src == nil || th.block.src.blockReady(&th.block) {
				out = append(out, th.id)
			}
		case tSleeping:
			if th.wakeAt <= s.now() {
				out = append(out, th.id)
			}
		}
	}
	s.runnableBuf = out
	return out
}

// hasFutureSleeper reports whether some thread sleeps on a deadline
// the clock has not reached (i.e. idling would change state).
func (s *scheduler) hasFutureSleeper() bool {
	if s.sleepers == 0 {
		return false
	}
	now := s.now()
	for _, th := range s.threads {
		if th.state == tSleeping && th.wakeAt > now {
			return true
		}
	}
	return false
}

// advanceTime warps the virtual clock to the earliest sleeping thread's
// deadline and reports whether any thread became runnable.
func (s *scheduler) advanceTime() bool {
	var min int64 = -1
	now := s.now()
	for _, th := range s.threads {
		if th.state == tSleeping && th.wakeAt > now && (min < 0 || th.wakeAt < min) {
			min = th.wakeAt
		}
	}
	if min < 0 {
		return false
	}
	s.nowNs += min - now
	return true
}

func (s *scheduler) liveCount() int {
	n := 0
	for _, th := range s.threads {
		if th.state != tDone {
			n++
		}
	}
	return n
}

func (s *scheduler) threadByID(id core.ThreadID) *thread {
	if int(id) < 0 || int(id) >= len(s.threads) {
		return nil
	}
	return s.threads[id]
}

// pendingOf reports a thread's published pending operation.
func (s *scheduler) pendingOf(id core.ThreadID) PendingOp {
	th := s.threadByID(id)
	if th == nil {
		return PendingOp{}
	}
	return th.pending
}

// footprintOf is the register-sized fast path behind Choice.
// FootprintOf: the pending operation's reduction identity without
// copying the whole PendingOp (whose Name/Loc strings make it a
// several-word struct).
func (s *scheduler) footprintOf(id core.ThreadID) core.Footprint {
	th := s.threadByID(id)
	if th == nil {
		return core.Footprint{}
	}
	return core.Footprint{Op: th.pending.Op, Obj: th.pending.NameID}
}

// describeDeadlock builds the human-readable wait-for description used
// in VerdictDeadlock results: every live thread with what it waits
// for, plus the lock cycle if one exists. The builder is
// allocation-free in steady state: fragments are composed in a
// reusable arena, sorted as byte ranges, and the finished description
// is interned — exploration revisits the same few deadlock shapes
// thousands of times, and bug deduplication keys on the exact string,
// so repeated deadlocks cost a table lookup instead of a dozen
// Sprintf allocations.
func (s *scheduler) describeDeadlock() string {
	arena := s.dlArena[:0]
	s.dlParts = s.dlParts[:0]
	if cap(s.dlWaits) < len(s.threads) {
		s.dlWaits = make([]core.ThreadID, len(s.threads))
	}
	waits := s.dlWaits[:len(s.threads)]
	for i := range waits {
		waits[i] = core.NoThread
	}
	hasEdge := false
	for _, th := range s.threads {
		if th.state == tDone {
			continue
		}
		beg := len(arena)
		arena = append(arena, 't')
		arena = strconv.AppendInt(arena, int64(th.id), 10)
		arena = append(arena, '(')
		arena = append(arena, th.name...)
		arena = append(arena, ')', ' ')
		switch th.state {
		case tSleeping:
			arena = append(arena, "sleeping"...)
		case tBlocked:
			arena = append(arena, "blocked on "...)
			switch th.block.kind {
			case blockLock:
				arena = append(arena, "lock"...)
			case blockRW, blockRWRead:
				arena = append(arena, "rwlock"...)
			case blockCond:
				arena = append(arena, "cond"...)
			case blockJoin:
				arena = append(arena, "join"...)
			case blockWG:
				arena = append(arena, "waitgroup"...)
			case blockChanSend:
				arena = append(arena, "chan-send"...)
			case blockChanRecv:
				arena = append(arena, "chan-recv"...)
			case blockSelect:
				arena = append(arena, "select"...)
			}
			arena = append(arena, ' ')
			arena = strconv.AppendQuote(arena, th.block.name)
			if th.block.src != nil {
				if h := th.block.src.blockHolder(&th.block); h != core.NoThread {
					waits[th.id] = h
					hasEdge = true
				}
			}
		default:
			arena = strconv.AppendUint(arena, uint64(th.state), 10)
		}
		s.dlParts = append(s.dlParts, dlPart{beg, len(arena)})
	}
	s.dlArena = arena
	slices.SortFunc(s.dlParts, func(a, b dlPart) int {
		return bytes.Compare(arena[a.beg:a.end], arena[b.beg:b.end])
	})
	buf := s.dlBuf[:0]
	for i, p := range s.dlParts {
		if i > 0 {
			buf = append(buf, "; "...)
		}
		buf = append(buf, arena[p.beg:p.end]...)
	}
	if hasEdge {
		if cyc := s.findCycle(waits); len(cyc) > 0 {
			buf = append(buf, " [cycle: "...)
			for i, id := range cyc {
				if i > 0 {
					buf = append(buf, '-', '>')
				}
				buf = append(buf, 't')
				buf = strconv.AppendInt(buf, int64(id), 10)
			}
			buf = append(buf, ']')
		}
	}
	s.dlBuf = buf
	if v, ok := s.dlTab[string(buf)]; ok {
		return v
	}
	v := string(buf)
	if s.dlTab == nil {
		s.dlTab = make(map[string]string, 16)
	}
	if len(s.dlTab) < 1<<12 {
		s.dlTab[v] = v
	}
	return v
}

// findCycle finds a cycle in the wait-for table (indexed by thread id,
// core.NoThread = no edge), returning the thread ids along it (empty
// if none). The result is canonical — starts are probed in ascending
// id order and the cycle is rotated to begin at its smallest id — so
// identical deadlocks always produce identical descriptions. Bug
// deduplication (core.BugSignature, keyed by every core.BugLog)
// depends on this. The walk reuses
// scheduler scratch buffers and allocates nothing in steady state.
func (s *scheduler) findCycle(waits []core.ThreadID) []core.ThreadID {
	if cap(s.dlSeen) < len(waits) {
		s.dlSeen = make([]int32, len(waits))
	}
	seen := s.dlSeen[:len(waits)]
	for start := range waits {
		if waits[start] == core.NoThread {
			continue
		}
		for i := range seen {
			seen[i] = -1
		}
		path := s.dlPath[:0]
		cur := core.ThreadID(start)
		for {
			if i := seen[cur]; i >= 0 {
				s.dlPath = path
				return s.canonicalCycle(path[i:])
			}
			next := waits[cur]
			if next == core.NoThread {
				break
			}
			seen[cur] = int32(len(path))
			path = append(path, cur)
			cur = next
		}
		s.dlPath = path
	}
	return nil
}

// canonicalCycle rotates an open cycle to start at its smallest thread
// id and closes it by repeating that id at the end, into a reusable
// buffer.
func (s *scheduler) canonicalCycle(cyc []core.ThreadID) []core.ThreadID {
	min := 0
	for i, id := range cyc {
		if id < cyc[min] {
			min = i
		}
	}
	out := s.dlCyc[:0]
	out = append(out, cyc[min:]...)
	out = append(out, cyc[:min]...)
	out = append(out, out[0])
	s.dlCyc = out
	return out
}

// abortAll unwinds every live thread, so that every coroutine is back
// in the pool's suspension point when the run returns.
func (s *scheduler) abortAll() {
	for _, th := range s.threads {
		if th.state == tDone {
			continue
		}
		th.abort = true
		th.next()
	}
}

// spawn creates a virtual thread, reusing a pooled one (and its
// coroutine) when available. The new thread does not run until some
// decision picks it.
func (s *scheduler) spawn(name string, body func(core.T)) *thread {
	var th *thread
	if n := len(s.free); n > 0 {
		th = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		th = &thread{sc: s}
		th.tcv.th = th
		th.hv.child = th
		th.newCoroutine()
	}
	th.id = core.ThreadID(len(s.threads))
	// Pooled threads usually get the same name run after run (the
	// repository bodies name deterministically), so a matching cached
	// name skips the intern-table lookup; InternName("") is 0, and the
	// nameID == 0 guard keeps fresh threads on the interning path.
	if th.name != name || th.nameID == 0 {
		th.name = name
		th.nameID = core.InternName(name)
	}
	th.state = tReady
	th.abort = false
	th.block = blockReason{}
	th.wakeAt = 0
	th.locksHeld = th.locksHeld[:0]
	th.pending = PendingOp{}
	th.body = body
	s.threads = append(s.threads, th)
	return th
}

// serve is the coroutine body of a pooled thread: each pass of the
// loop serves one assignment of the thread to a run, and the yield at
// its end suspends the coroutine in the free pool until a later run
// resumes it (or Close stops it, when yield reports false). Coroutine
// switches order memory like channel operations, so spawn's writes to
// a pooled thread happen before the thread's next resume reads them.
func (th *thread) serve(yield func(struct{}) bool) {
	// The coroutine's goroutine inherits its creator's labels; set the
	// vthread label here so a pooled thread never carries whatever
	// driver-phase label happened to be active when it was created.
	pprof.SetGoroutineLabels(vthreadLabels)
	th.yield = yield
	for {
		if th.abort {
			th.state = tDone // torn down before it ever ran
		} else {
			th.state = tRunning
			th.runBody()
		}
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody executes one assignment of the thread's body, converting
// oracle failures and teardown aborts (both delivered as panics) into
// scheduler state. It returns to serve, which yields to the driver.
func (th *thread) runBody() {
	returned := false
	defer func() {
		rec := recover()
		s := th.sc
		if rec == nil && !returned {
			th.goexited()
			return
		}
		if eb, ok := rec.(engineBug); ok {
			// Scheduler invariant violation: hand it to the driver to
			// re-panic on the Run caller's goroutine; this thread
			// returns to the pool. A fresh copy, because taking eb's
			// address would move it to the heap on every thread end.
			th.state = tDone
			s.bug = &engineBug{eb.msg}
			s.over = true
			return
		}
		fail, aborted := core.RecoverThread(rec, th.id)
		if aborted {
			// Teardown: the driver is sweeping threads down.
			th.state = tDone
			return
		}
		if fail != nil {
			if s.failure == nil {
				s.failure = fail
			}
		} else {
			s.finishOrder = append(s.finishOrder, th.name)
			s.emit(th, core.OpEnd, core.NoObject, "", 0, 0, 0, core.Location{}, 0)
		}
		th.state = tDone
		th.finishHandoff()
	}()
	th.body(&th.tcv)
	returned = true
}

// goexited handles a body that called runtime.Goexit, from runBody's
// deferred function. No recover stops a Goexit: left to unwind, it
// would end the coroutine, and iter.Pull would re-raise it on the
// driver. Instead the run fails, and the thread yields to the driver
// from inside the unwinding and stays there: it never rejoins the
// pool, and Close lets the Goexit finish.
func (th *thread) goexited() {
	s := th.sc
	if s.failure == nil {
		s.failure = &core.Failure{Msg: "thread " + th.name + " called runtime.Goexit", Thread: th.id}
	}
	th.state = tDone
	th.exited = true
	s.over = true
	th.yield(struct{}{})
}

// finishHandoff passes control on after this thread's body ended
// (normally or by a failed oracle): take the next decision inline and
// name the thread the driver resumes, or report the run over. The
// dying thread stays s.cur during the decision, so Choice.Current
// names it.
func (th *thread) finishHandoff() {
	s := th.sc
	next, st, bug := s.stepSafe()
	if bug != nil {
		s.bug = bug // stepSafe reports stepOver with it
	}
	if st == stepOver {
		s.over = true
		return
	}
	s.cur = next
}

// park takes one scheduling decision on behalf of the scheduler and
// yields accordingly: if the strategy keeps this thread, park returns
// without any switch at all; if it picks another thread, park names
// it in s.cur and yields to the driver, which resumes it, and returns
// when some later decision picks this thread again; if the decision
// ends the run, park reports it and yields for good — the only resume
// left is the teardown abort, which unwinds the thread's body. The
// caller must have set th.state (and th.block for blocked parks).
func (th *thread) park() {
	s := th.sc
	next, st := s.step()
	if st == stepOver {
		s.over = true
		th.yield(struct{}{})
		core.AbortNow()
	}
	if next != th {
		s.cur = next
		th.yield(struct{}{})
		if th.abort {
			core.AbortNow()
		}
	}
	if th.state == tSleeping {
		s.sleepers--
	}
	th.state = tRunning
	th.block = blockReason{}
}

// point is a scheduling point: the running thread offers the strategy a
// chance to run someone else before its next operation.
func (th *thread) point() {
	th.state = tReady
	th.park()
}

// blockOn parks the thread until its guard holds. The caller must
// re-check its guard afterwards in a loop: the driver guarantees the
// guard held when it picked the thread, and since nothing ran in
// between it still holds, but the loop keeps the invariant local.
func (th *thread) blockOn(reason blockReason) {
	th.state = tBlocked
	th.block = reason
	th.park()
}

// emit delivers an event to the listeners. Only the running thread
// calls it, so no locking is needed. It returns false if the plan
// suppressed the probe. The event is always materialized in evScratch
// (strategies observe it through Choice.LastEvent), but listener
// fan-out is skipped for event classes outside the subscription mask.
func (s *scheduler) emit(th *thread, op core.Op, obj core.ObjectID, name string, nameID uint32, value int64, flags core.Flags, loc core.Location, locID uint32) bool {
	if !s.plan.Enabled(op, name) {
		return false
	}
	s.seq++
	if s.ffPos < len(s.ffDec) {
		// Mid-fast-forward: the listeners already saw these events (the
		// restored state covers them) and no decision point runs before
		// the next event overwrites the scratch, so only the sequence
		// counter must match a full replay. The final replayed
		// operation's events fall through and materialize normally —
		// the first post-fast-forward decision observes them through
		// Choice.LastEvent exactly as a full replay would.
		s.hasEvent = true
		return true
	}
	// Field-at-a-time into the scratch event: a composite literal here
	// builds a temporary and block-copies it on every probe.
	ev := &s.evScratch
	ev.Seq = s.seq
	ev.Thread = th.id
	ev.Op = op
	ev.Obj = obj
	ev.Name = name
	ev.Value = value
	ev.Flags = flags
	ev.Loc = loc
	ev.NameID = nameID
	ev.LocID = locID
	s.hasEvent = true
	// ffQuiet covers the tail of a fast-forward — the final replayed
	// operation's events, emitted after the last recorded decision was
	// consumed but before the verification point.
	if s.evMask.Has(op) && !s.ffQuiet {
		s.listeners.OnEvent(&s.evScratch)
	}
	return true
}

// prePoint takes the scheduling point that precedes an instrumented
// operation, unless the plan suppressed the probe. The pending
// operation is published so strategies (noise heuristics in
// particular) can key their decision on what the thread is about to
// do.
func (th *thread) prePoint(op core.Op, name string, nameID uint32, loc core.Location) {
	if !th.sc.plan.Enabled(op, name) {
		return
	}
	th.pending.Op = op
	th.pending.Name = name
	th.pending.NameID = nameID
	th.pending.Loc = loc
	th.point()
}

// Now returns the scheduler's virtual clock; the clock also advances
// one quantum per scheduling step.
func (s *scheduler) now() int64 {
	return s.nowNs + s.steps*s.quantum
}
