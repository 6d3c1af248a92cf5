package sched

import (
	"math/rand"
	"slices"

	"mtbench/internal/core"
)

// IdleID is the pseudo-thread a Strategy may return from Pick when
// Choice.CanIdle is set: instead of running anyone, the scheduler
// advances virtual time to the next sleeper's deadline. This models a
// real scheduler's freedom to let timers expire while runnable threads
// wait — the freedom that exposes sleep-as-synchronization and
// lost-wakeup timing bugs.
const IdleID core.ThreadID = -2

// CoastID is the pseudo-thread a Strategy may return from Pick to hand
// the rest of the run to the scheduler: this and all later decisions
// follow the built-in nonpreemptive rule (current thread while it can
// run, lowest-id runnable otherwise) without consulting the strategy
// again and without recording the schedule. Step counting, virtual
// time, deadlock detection and the step limit are unchanged, so a
// coasted run reaches exactly the verdict and outcome a nonpreemptive
// fallback strategy would have — CoastID only removes the
// per-decision strategy round trip. The exploration engine coasts
// through run tails below a state-cache cut, where the decisions are
// forced and the subtree is already proven explored.
const CoastID core.ThreadID = -4

// Choice describes one scheduling decision point for a Strategy.
type Choice struct {
	// Step is the zero-based index of this decision in the run.
	Step int64
	// Runnable is the set of threads that can run, sorted by id; it is
	// never empty and must not be mutated.
	Runnable []core.ThreadID
	// Current is the thread that was running before this point
	// (NoThread at the start of the run). It may be absent from
	// Runnable if it blocked or finished.
	Current core.ThreadID
	// LastEvent is the most recently emitted event, or nil before the
	// first event. Noise heuristics use it to bias decisions by
	// operation kind or program location.
	LastEvent *core.Event
	// PendingOf reports the pending operation of any thread (zero for
	// threads that have not executed yet). PendingOf(Current) is the
	// operation Current stopped before — what a ConTest-style noise
	// heuristic keys on.
	PendingOf func(core.ThreadID) PendingOp
	// FootprintOf reports just the reduction-layer footprint (operation
	// kind + interned object handle) of a runnable thread's pending
	// operation — the register-sized subset of PendingOf that
	// independence pruning and state hashing key on, avoiding the
	// multi-word PendingOp copy on the exploration hot path.
	FootprintOf func(core.ThreadID) core.Footprint
	// CanIdle reports that at least one thread sleeps on a future
	// virtual deadline, so Pick may return IdleID to warp time there.
	CanIdle bool
	// SnapshotTo fills a position digest for this decision point (see
	// Snapshot): the strategy-side handle the exploration engine uses
	// to snapshot a branch so later runs can fast-forward to it
	// (Config.FastForward/FFCheck) instead of replaying from the root
	// under full strategy control.
	SnapshotTo func(*Snapshot)
}

// CurrentRunnable reports whether the previously running thread can
// continue.
func (c *Choice) CurrentRunnable() bool {
	return c.Current != core.NoThread && slices.Contains(c.Runnable, c.Current)
}

// Strategy decides which thread runs at each scheduling point. A
// Strategy must be deterministic given its own construction (seed), so
// runs are reproducible; it may keep per-run state, but then each run
// needs a fresh instance, or one a factory has reset in place
// (RandomFactory and RandomWhenBlockedFactory do this).
//
// Pick must return a member of c.Runnable; core.NoThread to declare
// divergence (used by replay when the recorded schedule cannot be
// followed); IdleID to warp virtual time (only when c.CanIdle); or the
// run-control sentinel CoastID.
type Strategy interface {
	Name() string
	Pick(c *Choice) core.ThreadID
}

// RunEnder is an optional Strategy extension. A run can end at a
// decision point while threads are still runnable: after an assertion
// failure, or at the step limit. The scheduler then calls EndRun once,
// with the Choice those threads would have been offered next, so a
// strategy can see the operations the run left pending (the
// exploration engine's DPOR checks them against the path). EndRun is
// not called when the run ends inside a fast-forward or while coasting,
// nor when nothing is runnable (clean completion, deadlock).
type RunEnder interface {
	EndRun(c *Choice)
}

// LocationAware is an optional Strategy extension. Capturing the
// source location of every instrumented operation costs a call-site
// lookup per probe (core.CallerLocationID), so the scheduler skips it
// when nothing observes locations: any attached listener turns capture
// on, and a strategy that keys its
// decisions on PendingOf(...).Loc (noise with a location-keyed
// heuristic does) must declare it by implementing LocationAware with
// NeedsLocations() true.
// Strategies without the method see zero Locations in listener-free
// runs; everything else about the Choice is unaffected.
type LocationAware interface {
	NeedsLocations() bool
}

// nonpreemptive models the scheduler the paper's §1 blames for unit
// tests never exposing concurrency bugs: it keeps running the current
// thread until it blocks or finishes, then picks the lowest-id runnable
// thread. It is the deterministic baseline in the noise experiments.
type nonpreemptive struct{}

// Nonpreemptive returns the run-to-block deterministic baseline
// strategy.
func Nonpreemptive() Strategy { return nonpreemptive{} }

func (nonpreemptive) Name() string { return "nonpreemptive" }

func (nonpreemptive) Pick(c *Choice) core.ThreadID {
	if c.CurrentRunnable() {
		return c.Current
	}
	return c.Runnable[0]
}

// roundRobin rotates through runnable threads, switching at every
// scheduling point: maximal systematic interleaving without randomness.
type roundRobin struct{}

// RoundRobin returns the switch-every-point rotation strategy.
func RoundRobin() Strategy { return roundRobin{} }

func (roundRobin) Name() string { return "roundrobin" }

func (roundRobin) Pick(c *Choice) core.ThreadID {
	for _, id := range c.Runnable {
		if id > c.Current {
			return id
		}
	}
	return c.Runnable[0]
}

// randomWhenBlocked runs the current thread until it blocks, then
// dispatches a uniformly random runnable thread. This models a real
// non-preemptive-ish OS scheduler: no forced preemption, but arbitrary
// dispatch order. It is the base the noise strategies wrap — noise
// tools in the field inject delays over exactly this kind of
// nondeterministic dispatcher, and some bug classes (wakeup-order
// bugs) depend on dispatch alone.
type randomWhenBlocked struct {
	rng *rand.Rand
}

// RandomWhenBlocked returns the run-to-block, random-dispatch strategy.
func RandomWhenBlocked(seed int64) Strategy { return RandomWhenBlockedFactory()(seed) }

// RandomWhenBlockedFactory returns a source of RandomWhenBlocked
// strategies that builds one strategy on its first call and reseeds it
// on every later call. The strategy returned is valid until the next
// call, and it draws exactly what RandomWhenBlocked(seed) would.
func RandomWhenBlockedFactory() func(seed int64) Strategy {
	r := &randomWhenBlocked{}
	return func(seed int64) Strategy {
		r.rng = core.Reseed(r.rng, seed)
		return r
	}
}

func (*randomWhenBlocked) Name() string { return "randomdispatch" }

func (r *randomWhenBlocked) Pick(c *Choice) core.ThreadID {
	if c.CurrentRunnable() {
		return c.Current
	}
	return c.Runnable[r.rng.Intn(len(c.Runnable))]
}

// random picks uniformly among runnable threads at every point — the
// "simulates the behaviour of other possible schedulers" extreme.
type random struct {
	rng *rand.Rand
}

// Random returns a seeded uniformly random strategy. Distinct seeds
// explore distinct interleavings; the same seed reproduces the run.
func Random(seed int64) Strategy { return RandomFactory()(seed) }

// RandomFactory returns a source of Random strategies that builds one
// strategy on its first call and reseeds it on every later call. The
// strategy returned is valid until the next call, and it draws exactly
// what Random(seed) would: reseeding a core.NewRand rng restarts its
// stream in O(1).
func RandomFactory() func(seed int64) Strategy {
	r := &random{}
	return func(seed int64) Strategy {
		r.rng = core.Reseed(r.rng, seed)
		return r
	}
}

func (*random) Name() string { return "random" }

func (r *random) Pick(c *Choice) core.ThreadID {
	return c.Runnable[r.rng.Intn(len(c.Runnable))]
}

// FixedSchedule replays an explicit decision list and then falls back
// to fallback (used by the exploration engine to force a prefix). It
// returns divergence if a recorded decision is not runnable.
type FixedSchedule struct {
	Decisions []core.ThreadID
	Fallback  Strategy
	pos       int
}

// Name implements Strategy.
func (f *FixedSchedule) Name() string { return "fixed" }

// Pick implements Strategy.
func (f *FixedSchedule) Pick(c *Choice) core.ThreadID {
	if f.pos < len(f.Decisions) {
		want := f.Decisions[f.pos]
		f.pos++
		if want == IdleID {
			if !c.CanIdle {
				return core.NoThread
			}
			return IdleID
		}
		if !slices.Contains(c.Runnable, want) {
			return core.NoThread
		}
		return want
	}
	if f.Fallback == nil {
		f.Fallback = Nonpreemptive()
	}
	return f.Fallback.Pick(c)
}

// ListenerStrategy wraps a strategy and reports every decision to a
// hook — test instrumentation for strategy behaviour.
type ListenerStrategy struct {
	Strategy Strategy
	Hook     func(c *Choice, picked core.ThreadID)
}

// Name implements Strategy.
func (l *ListenerStrategy) Name() string { return "listener:" + l.Strategy.Name() }

// Pick implements Strategy.
func (l *ListenerStrategy) Pick(c *Choice) core.ThreadID {
	picked := l.Strategy.Pick(c)
	if l.Hook != nil {
		l.Hook(c, picked)
	}
	return picked
}
