// Package explore implements systematic state-space exploration (§2.2:
// VeriSoft-style stateless search that "systematically explores the
// state space ... by controlling and observing the execution of all
// the components, and by reinitializing their executions"). Because the
// controlled scheduler makes a run a pure function of its decision
// sequence, exploration is a depth-first search over decision
// sequences: each new schedule re-executes the program from the start,
// following a recorded prefix and then deviating at the deepest
// decision point with untried alternatives.
//
// Whenever an error is detected the offending schedule is saved as a
// replayable scenario, exactly as the paper prescribes.
//
// Several optional prunings keep the search tractable:
//
//   - Preemption bounding (iterative context bounding): deviations
//     that switch away from a runnable thread are limited to a budget.
//     Most real concurrency bugs need very few preemptions, so small
//     bounds find them in exponentially smaller trees. Unsound as a
//     verification method; measured as a search strategy in E5.
//   - Variable bounding and thread bounding (Bindal, Bansal and Lal):
//     instead of bounding how many preemptions a schedule may take,
//     bound which state may be involved in them — the number of
//     distinct shared objects whose delayed accesses context switches
//     may interrupt (VariableBound), or the number of distinct threads
//     that may be preempted (ThreadBound). Like the preemption bound,
//     each is unsound as verification and measured as a search regime;
//     unlike it, the bounded tree still admits arbitrarily many
//     preemptions against the bounded set, which is the bug class the
//     per-bound guarantees in Bindal et al. cover.
//   - Sleep sets: after exploring thread t at a node, siblings need
//     not re-explore threads whose pending operations are independent
//     of t's. Sound for terminating programs.
//
// The search is sharded across a worker pool (Options.Workers): the
// decision tree is partitioned into schedule-prefix work items, each
// worker replays its prefix and explores the subtree below it with the
// full per-worker DFS machinery (preemption bounds and sleep sets
// included), and a merge layer aggregates outcomes and deduplicates
// bugs under global budgets. See parallel.go.
package explore

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"mtbench/internal/core"
	"mtbench/internal/instrument"
	"mtbench/internal/sched"
)

// Options configures an exploration.
type Options struct {
	// MaxSchedules bounds how many schedules are executed (0 = 10000).
	// With Workers > 1 it is a global budget shared by all workers.
	MaxSchedules int
	// MaxSteps bounds each run (0 = sched default).
	MaxSteps int64
	// PreemptionBound, when non-nil, limits preemptive switches per
	// schedule (iterative context bounding). Bound(0) explores only
	// non-preemptive schedules; nil explores without a bound.
	PreemptionBound *int
	// VariableBound, when non-nil, limits the number of distinct shared
	// objects whose pending accesses may be interrupted by a preemption
	// along one schedule (Bindal et al.'s variable bounding), keyed on
	// the interned core.Footprint object handles. A preemption "charges"
	// the object the preempted thread was about to access; once the
	// bound's worth of distinct objects has been charged, only
	// preemptions against those same objects remain enabled. Object
	// handle 0 (operations with no named shared object, conservatively
	// dependent with everything) counts as one aliased variable.
	// Bound(0) explores only non-preemptive schedules; nil is unbounded.
	VariableBound *int
	// ThreadBound, when non-nil, limits the number of distinct threads
	// that may be preempted along one schedule (Bindal et al.'s thread
	// bounding). Once the bound's worth of distinct threads has been
	// preempted, only further preemptions of those same threads remain
	// enabled — schedules may still take arbitrarily many preemptions,
	// against a bounded thread set. The preempted set is a 64-bit thread
	// set, so threads with ids ≥ 64 are never members and never cut
	// (conservative). Bound(0) explores only non-preemptive schedules;
	// nil is unbounded.
	ThreadBound *int
	// SleepSets enables sleep-set pruning: once an option's subtree is
	// explored at a node, the option sleeps there, and it stays asleep
	// in the children of later siblings whose operation commutes with
	// it. A sleeping option is not explored again. Sleep sets are 64-bit
	// thread sets: a thread with an id ≥ 64 never sleeps, which only
	// prunes less.
	SleepSets bool
	// DPOR enables dynamic partial-order reduction: each node commits
	// to one successor and alternatives are expanded only when a later
	// operation on the path is discovered not to commute with a chosen
	// one (see reduce.go). DPOR implies SleepSets — the two prunings
	// are sound together and the reduction layer maintains both.
	// Reduction never changes the deduplicated bug set (pinned by
	// TestReducedEquivalence over the whole program repository); it
	// does change schedule numbering and outcome histograms, since
	// pruned schedules are never executed.
	DPOR bool
	// StateCache enables canonical-state memoization: scheduler states
	// are hashed (per-thread event chains in conflict order + runnable
	// set + pending-operation handles) into a bounded direct-mapped
	// cache, and a revisited state's subtree is cut.
	//
	// Every search, with the state cache or without, positions each run
	// after a shard's first at its frontier: a pooled runner
	// fast-forwards the decisions above the branch at coast speed
	// (sched.Config.FastForward) and verifies the scheduler's position
	// digest on arrival, instead of replaying them from the root under
	// full strategy control. Without the state cache the branch is the
	// node backtracking just advanced; with it, the run must also
	// restore the event hasher, so it goes to the deepest path node
	// still holding a hasher snapshot (the deepest 64 are kept per
	// shard). Positioning changes how a run reaches its frontier, never
	// which frontier it explores: serially, results are identical to a
	// root-replay search except for the positioning counters in Stats.
	// A search with Listeners positions by root replay, since
	// fast-forwarded decisions reach no listener.
	StateCache bool
	// ExploreTimeouts includes "let virtual time pass" (sched.IdleID)
	// among the choices at points where a thread sleeps on a timer,
	// extending the search to timing bugs (sleep-as-synchronization,
	// lost wakeups) at the cost of extra branching.
	ExploreTimeouts bool
	// StopAtFirstBug ends the search at the first non-pass verdict.
	// With Workers > 1 the stop is global: in-flight schedules on other
	// workers finish and are counted, then the search winds down.
	StopAtFirstBug bool
	// Context, when non-nil, cancels the search: once it is done the
	// search winds down exactly like a first-bug stop (in-flight
	// schedules finish, Exhausted is false). nil is never cancelled.
	Context context.Context
	// Workers is the number of parallel search workers (0 =
	// runtime.NumCPU()). Workers == 1 is the exact serial DFS: schedule
	// order, bug indices and outcome counts are deterministic. With
	// more workers the same decision tree is partitioned across
	// goroutines: the deduplicated bug set is the same, but schedule
	// numbering depends on worker interleaving. Without reduction every
	// schedule is still executed exactly once (sleep sets prune slightly
	// less across shard boundaries). A reduced search may execute more
	// schedules than the serial one, because donation expands the
	// donor's DPOR nodes and two workers can explore the same state
	// before either has finished it: DPOR with the state cache measures
	// about 0.99x the serial schedule count at 2 workers and 1.02x at 4
	// on philosophers{3,1}, account{3,1}, account{2,2} and statmax{3}
	// (TestParallelReducedRatio bounds it at 1.2x).
	Workers int
	// Listeners are attached to every run and see all of it: a search
	// with listeners replays each run from the root rather than
	// fast-forwarding its prefix (cumulative tools such as coverage
	// trackers and race detectors work as-is). With Workers > 1, runs
	// execute concurrently, so listeners must be safe for concurrent
	// use.
	Listeners []core.Listener
	// Name labels runs for RunObserver listeners.
	Name string
	// Plan filters which probes fire in every run (nil = instrument
	// everything). Programs produced by the rewrite pipeline carry a
	// plan from escape analysis; threading it here keeps thread-local
	// accesses out of the schedule space.
	Plan *instrument.Plan
}

// Result summarizes an exploration.
type Result struct {
	// Schedules is the number of executions performed.
	Schedules int
	// Exhausted is true when the decision tree was fully explored
	// (within the configured bounds).
	Exhausted bool
	// BugLog holds the distinct failures found, deduplicated by
	// core.BugSignature and ordered by schedule number.
	core.BugLog
	// Outcomes histograms Result.Outcome strings over all schedules.
	Outcomes map[string]int
	// Stats reports what the reduction layer pruned (zero when neither
	// DPOR nor StateCache ran).
	Stats Stats
	// Err is set when the program behaved nondeterministically under
	// replay, which invalidates the search.
	Err error
}

// Bound is a convenience for the bound fields of Options
// (PreemptionBound, VariableBound, ThreadBound).
func Bound(n int) *int { return &n }

// node is one decision point along the current DFS path. Every search
// mode runs on the same node: todo is the set of options the node must
// explore (all of them in plain and sleep-set search; under DPOR the
// first one plus whatever race analysis requests), done the set whose
// subtrees completed, and sleep the options sleep sets skip here.
// backtrack moves to the first requested option that is neither done
// nor asleep, and popNode counts what the node left unexplored.
type node struct {
	options []core.ThreadID // runnable threads, exploration order
	curIdx  int             // index into options currently explored
	current core.ThreadID   // thread that was running at this point
	// curRunnable records that current could run here, so choosing any
	// other option preempts it; curObj is current's pending object
	// (variable-bounding state, set only while VariableBound is). Both
	// are fixed at creation: split may later remove current from
	// options.
	curRunnable bool
	curObj      uint32
	// preBefore is the number of preemptions used before this node.
	preBefore int
	// preempted is the set of threads preempted before this node
	// (thread-bounding state). Maintained only while ThreadBound is set.
	preempted threadSet
	// vbObjs is the sorted set of distinct object handles charged by
	// preemptions before this node (variable-bounding state).
	// Maintained only while VariableBound is set.
	vbObjs []uint32
	// fps snapshots each option's pending-operation footprint at this
	// node, index-aligned with options (for sleep-set and DPOR
	// independence, the state hash and variable bounding).
	fps []core.Footprint
	// sleep is the set of options that need not be (re-)explored here:
	// the inherited sleep set plus, under Options.SleepSets, every
	// option whose subtree completed. sleep0 is the inherited part,
	// fixed at creation; it keys the node's state-cache entry.
	sleep  threadSet
	sleep0 threadSet

	// The backtrack state, index-aligned with options: todo marks the
	// options to expand, done those whose subtrees completed.
	todo []bool
	done []bool

	// State-cache bookkeeping (Options.StateCache): the node's
	// canonical identity at creation, the subtree's footprint summary
	// accumulated as children pop, and the cut flag (this node's
	// subtree was found in the cache; the run's remaining decisions are
	// coasted, so no nodes exist below a cut).
	stateHash   uint64
	cut         bool
	sub         []uint64
	subOverflow bool

	// pos is the scheduler's position digest at this decision point,
	// before any option was chosen, captured when a multi-option node is
	// created (positioning on): a later run fast-forwards the decisions
	// above the node and verifies it on arrival. hsnap is the event
	// hasher frozen at the same point (state cache only; nil once
	// evicted by deeper nodes, see explorer.holders), which a run
	// positioned here restores. Both predate the choice, so they serve
	// every sibling the node still has.
	pos   sched.Snapshot
	hsnap *hasherSnap
}

func (n *node) chosen() core.ThreadID { return n.options[n.curIdx] }

// chosenFP is the footprint of the option currently being explored.
func (n *node) chosenFP() core.Footprint { return n.fps[n.curIdx] }

// sleepAfter is the sleep set a successor reached by an operation with
// footprint fp inherits from sleep, a sleep set of n: the members that
// are options here and whose operations commute with fp. A sleeping
// thread that is no option here has no footprint to compare, so it is
// dropped (conservative).
func (n *node) sleepAfter(sleep threadSet, fp core.Footprint) threadSet {
	var s threadSet
	if sleep == 0 {
		return s
	}
	for i, o := range n.options {
		if sleep.has(o) && n.fps[i].Commutes(fp) {
			s = s.with(o)
		}
	}
	return s
}

// threadSet is a set of thread ids as a 64-bit mask: sleep sets, the
// thread bound's preempted set and the state cache's sleep keys. Ids
// outside [0, 64) — the idle pseudo-thread included — are never
// members, and adding one changes nothing. For a sleep set that means
// such a thread never sleeps (it is explored again, which prunes less);
// for the thread bound it means such a thread is never cut.
type threadSet uint64

// inThreadSet reports whether a threadSet can hold t.
func inThreadSet(t core.ThreadID) bool { return t >= 0 && t < 64 }

func (s threadSet) has(t core.ThreadID) bool {
	return inThreadSet(t) && s&(1<<uint(t)) != 0
}

func (s threadSet) with(t core.ThreadID) threadSet {
	if !inThreadSet(t) {
		return s
	}
	return s | 1<<uint(t)
}

func (s threadSet) len() int { return bits.OnesCount64(uint64(s)) }

// nodePool recycles DFS nodes (and their slices) within a worker. A
// deep search allocates one node per decision point per path;
// recycling them on backtrack makes the steady-state search
// allocation-free in the engine itself.
type nodePool struct {
	free []*node
	// snaps recycles hasher snapshots (their slices keep their backing
	// arrays, so steady-state snapshot-taking is allocation-free).
	snaps []*hasherSnap
}

func newNodePool() *nodePool { return &nodePool{} }

// get returns a reset node with current set and inherited-state fields
// zeroed.
func (p *nodePool) get(current core.ThreadID) *node {
	if n := len(p.free); n > 0 {
		nd := p.free[n-1]
		p.free = p.free[:n-1]
		nd.options = nd.options[:0]
		nd.curIdx = 0
		nd.current = current
		nd.curRunnable, nd.curObj = false, 0
		nd.preBefore = 0
		nd.preempted = 0
		nd.vbObjs = nd.vbObjs[:0]
		nd.sleep, nd.sleep0 = 0, 0
		nd.fps = nd.fps[:0]
		nd.todo = nd.todo[:0]
		nd.done = nd.done[:0]
		nd.stateHash = 0
		nd.cut = false
		nd.sub = nd.sub[:0]
		nd.subOverflow = false
		nd.pos = sched.Snapshot{}
		nd.hsnap = nil
		return nd
	}
	return &node{current: current}
}

func (p *nodePool) put(n *node) {
	p.free = append(p.free, n)
}

func (p *nodePool) getSnap() *hasherSnap {
	if n := len(p.snaps); n > 0 {
		s := p.snaps[n-1]
		p.snaps = p.snaps[:n-1]
		return s
	}
	return &hasherSnap{}
}

func (p *nodePool) putSnap(s *hasherSnap) {
	p.snaps = append(p.snaps, s)
}

// tbAllows reports whether preempting thread t at this node respects
// the thread bound: t was already preempted on this path, or the
// preempted set still has room. A thread no threadSet can hold is never
// cut (conservative).
func (n *node) tbAllows(t core.ThreadID, bound int) bool {
	return !inThreadSet(t) || n.preempted.has(t) || n.preempted.len() < bound
}

// vbAllows reports whether charging object obj at this node respects
// the variable bound: obj was already charged on this path, or the
// charged set still has room.
func (n *node) vbAllows(obj uint32, bound int) bool {
	if _, ok := slices.BinarySearch(n.vbObjs, obj); ok {
		return true
	}
	return len(n.vbObjs) < bound
}

// addVBObj inserts an object handle into a sorted charged-object set,
// keeping it deduplicated (sorted order makes the set's contribution
// to the state hash deterministic).
func addVBObj(objs []uint32, obj uint32) []uint32 {
	i, ok := slices.BinarySearch(objs, obj)
	if ok {
		return objs
	}
	return slices.Insert(objs, i, obj)
}

// childBounds returns the bound accounting a child of n reached
// through option t starts with: n's own, plus — when t preempts the
// runnable current thread — one preemption, the current thread in the
// preempted set and, under VariableBound, its pending object in the
// charged set. vb is appended to and returned.
func (e *explorer) childBounds(n *node, t core.ThreadID, vb []uint32) (pre int, tb threadSet, _ []uint32) {
	pre, tb = n.preBefore, n.preempted
	if e.opts.VariableBound != nil {
		vb = append(vb, n.vbObjs...)
	}
	if n.curRunnable && t != n.current {
		pre++
		tb = tb.with(n.current)
		if e.opts.VariableBound != nil {
			vb = addVBObj(vb, n.curObj)
		}
	}
	return pre, tb, vb
}

// explorer owns one shard of the decision tree: the subtree hanging
// under the work item's prefix. Decisions 0..base-1 are replayed
// literally on every run and are not backtrack points — their sibling
// alternatives belong to other work items (or were already explored by
// the donor).
type explorer struct {
	opts Options
	// decisions is the next run's decision sequence: the shard's prefix
	// (the first base entries) followed by each path node's current
	// choice. Pick appends a fresh node's choice, backtrack rewrites the
	// advanced node's, popNode truncates; Pick's replay reads it, and a
	// positioned run fast-forwards a prefix of it.
	decisions []core.ThreadID
	base      int
	// root is the shard's work item: its sleep set and bound
	// accounting seed the first fresh node, inherited from the donor's
	// branch node exactly as a child node inherits from its parent in
	// the serial DFS.
	root *workItem
	path []*node
	err  error
	// pool recycles nodes across schedules and shards (owned by the
	// worker driving this explorer).
	pool *nodePool
	// red is the worker's state-cache machinery (nil unless
	// Options.StateCache); stats accumulates this shard's reduction
	// counters, merged by the coordinator when the shard ends.
	red   *reduction
	stats Stats
	// dep is the worker's last-dependent index over path (DPOR's
	// backtrack lookups; see depIndex), reset at shard start.
	dep *depIndex
	// cutDepth is the path index of the active cache cut (-1 when
	// none): nodes created deeper only finish the in-flight run.
	cutDepth int
	// snapCap caps the hasher snapshots the shard holds at once; 0
	// turns positioning off, so every run replays from the root.
	// holders are the path indices of the nodes holding one, shallowest
	// first: nodes are created at the deep end and pop from it, so a
	// new holder appends, a popped one is the last, and at the cap the
	// first is evicted.
	snapCap int
	holders []int
}

// dfsStrategy drives one run: replay the prefix and the path's
// choices, extend the frontier with fresh nodes.
type dfsStrategy struct {
	e     *explorer
	depth int
}

// Name implements sched.Strategy.
func (st *dfsStrategy) Name() string { return "explore-dfs" }

// Pick implements sched.Strategy.
func (st *dfsStrategy) Pick(c *sched.Choice) core.ThreadID {
	e := st.e
	d := st.depth

	// Replay: the shard's prefix, then the path's current choices.
	pd := d - e.base
	if pd < len(e.path) {
		st.depth++
		e.stats.ReplayedSteps++
		want := e.decisions[d]
		if want == sched.IdleID {
			if !c.CanIdle {
				e.err = fmt.Errorf("explore: nondeterministic program: cannot idle at depth %d", d)
				return core.NoThread
			}
		} else if !slices.Contains(c.Runnable, want) {
			e.err = fmt.Errorf("explore: nondeterministic program: thread %d not runnable at depth %d", want, d)
			return core.NoThread
		}
		e.notePick(c, want)
		return want
	}

	// Below an active state-cache cut the subtree is already proven
	// explored: the run need only be finished, not decided. The
	// scheduler coasts the tail under its built-in nonpreemptive rule —
	// the exact decisions the old per-decision bypass nodes produced,
	// with no strategy round trips.
	if e.cutDepth >= 0 && pd > e.cutDepth {
		return sched.CoastID
	}

	st.depth++
	e.stats.NovelSteps++
	n := e.newNode(c, pd)
	e.path = append(e.path, n)
	e.decisions = append(e.decisions, n.chosen())
	e.notePick(c, n.chosen())
	return n.chosen()
}

// EndRun implements sched.RunEnder: under DPOR, a run that ends with
// threads still runnable has its pending operations checked against
// the path (see endAnalyze). A run that ends below a state-cache cut
// has nothing to check: the cut subtree's obligations were replayed
// from its summary.
func (st *dfsStrategy) EndRun(c *sched.Choice) {
	e := st.e
	if e.opts.DPOR && e.cutDepth < 0 && st.depth-e.base == len(e.path) {
		e.endAnalyze(c)
	}
}

// newNode builds the frontier node for choice point c at path index pd,
// applying preemption/variable/thread bounding, sleep sets and the
// exploration order (current thread first, so the first descent is the
// cheap nonpreemptive schedule).
func (e *explorer) newNode(c *sched.Choice, pd int) *node {
	n := e.pool.get(c.Current)
	n.curRunnable = slices.Contains(c.Runnable, c.Current)
	if n.curRunnable && e.opts.VariableBound != nil {
		n.curObj = c.FootprintOf(c.Current).Obj
	}

	// Inherit bound accounting and sleep set from the parent node, or
	// from the donated work item at the subtree root.
	if pd > 0 {
		parent := e.path[pd-1]
		n.preBefore, n.preempted, n.vbObjs = e.childBounds(parent, parent.chosen(), n.vbObjs)
		n.sleep = parent.sleepAfter(parent.sleep, parent.chosenFP())
	} else {
		n.preBefore, n.preempted, n.sleep = e.root.pre, e.root.preempted, e.root.sleep
		if e.opts.VariableBound != nil {
			n.vbObjs = append(n.vbObjs, e.root.vb...)
		}
	}
	n.sleep0 = n.sleep

	// Option order: current first (if runnable), then ascending ids.
	if n.curRunnable {
		n.options = append(n.options, c.Current)
	}
	for _, id := range c.Runnable {
		if id != c.Current {
			n.options = append(n.options, id)
		}
	}

	// Bound cuts: when a bound forbids preempting the current thread
	// here, the only choices are non-preemptive ones (the current
	// thread, or anything if the current thread cannot run). The
	// preemption bound cuts when the budget is spent; the thread bound
	// cuts when the current thread is outside an already-full preempted
	// set; the variable bound cuts when the current thread's pending
	// object is outside an already-full charged set.
	cut := false
	if n.curRunnable {
		switch {
		case e.opts.PreemptionBound != nil && n.preBefore >= *e.opts.PreemptionBound:
			cut = true
		case e.opts.ThreadBound != nil && !n.tbAllows(c.Current, *e.opts.ThreadBound):
			e.stats.TBPruned += len(n.options) - 1
			cut = true
		case e.opts.VariableBound != nil && !n.vbAllows(n.curObj, *e.opts.VariableBound):
			e.stats.VBPruned += len(n.options) - 1
			cut = true
		}
	}
	if cut {
		n.options = n.options[:1]
	} else if e.opts.ExploreTimeouts && c.CanIdle {
		// Timing branch: let the pending timer(s) expire before anyone
		// runs. Explored last; counts as a preemption when it delays a
		// runnable current thread.
		n.options = append(n.options, sched.IdleID)
	}

	// Snapshot pending-operation footprints, index-aligned with options
	// (FootprintOf returns zero for the idle pseudo-thread, which is
	// conservatively dependent with everything).
	for _, id := range n.options {
		n.fps = append(n.fps, c.FootprintOf(id))
	}

	// Skip initial options that are in the inherited sleep set; the
	// last option runs even when asleep. What the node leaves
	// unexplored is counted when it pops.
	for n.curIdx < len(n.options)-1 && n.sleep.has(n.options[n.curIdx]) {
		n.curIdx++
	}

	// Request options: plain and sleep-set search request every one;
	// DPOR requests the first it explores and lets race analysis add
	// the rest.
	for range n.options {
		n.todo = append(n.todo, !e.opts.DPOR)
		n.done = append(n.done, false)
	}
	if e.opts.DPOR {
		n.todo[n.curIdx] = true
		// Timing branches are never DPOR-pruned: the independence
		// relation says nothing about virtual-time warps.
		if e.opts.ExploreTimeouts {
			if last := len(n.options) - 1; n.options[last] == sched.IdleID {
				n.todo[last] = true
			}
		}
		e.dporAnalyze(n, pd)
	}

	// Canonical-state lookup: an equivalent subtree already fully
	// explored (under a no-larger sleep set) cuts this one. Under DPOR
	// the cached summary is replayed first so the cut subtree's race
	// reversals against the current path are still requested.
	if e.red != nil {
		n.stateHash = e.hashState(c, n)
		if sub, hit := e.red.cache.lookup(n.stateHash, n.sleep0, n.sub[:0]); hit {
			e.stats.StateHits++
			if e.opts.DPOR {
				e.applySummary(sub, pd)
				n.sub = sub
			}
			n.cut = true
			e.cutDepth = pd
			n.options[0], n.fps[0] = n.chosen(), n.chosenFP()
			n.options, n.fps = n.options[:1], n.fps[:1]
			n.curIdx = 0
			n.todo = append(n.todo[:0], true)
			n.done = append(n.done[:0], false)
		}
	}

	// Branch position: a multi-option node is a point later schedules
	// return to, one per remaining sibling. Capture the scheduler's
	// position digest here — before the node's own decision is taken or
	// folded — so a later run can fast-forward the decisions above this
	// node and re-enter the DFS at the branch. Single-option nodes are
	// popped straight through on backtrack and never returned to, so
	// they capture nothing.
	if e.snapCap > 0 && !n.cut && len(n.options) > 1 {
		c.SnapshotTo(&n.pos)
		if e.red != nil {
			e.holdSnap(n, pd)
		}
	}
	return n
}

// holdSnap freezes the event hasher into n, the node about to join the
// path at index pd. At the cap the shallowest holder gives its snapshot
// up: the deepest nodes are the ones backtracking returns to next, and
// a run backtracking above the live ones positions from the deepest
// snapshot above its branch and replays the rest under strategy
// control.
func (e *explorer) holdSnap(n *node, pd int) {
	var hs *hasherSnap
	if len(e.holders) < e.snapCap {
		hs = e.pool.getSnap()
	} else {
		old := e.path[e.holders[0]]
		hs, old.hsnap = old.hsnap, nil
		e.holders = e.holders[1:]
	}
	e.red.hasher.snapshotInto(hs)
	n.hsnap = hs
	e.holders = append(e.holders, pd)
}

// positionAt returns the path index of the node the next run
// fast-forwards to, or -1 when it replays from the root: positioning
// is off, the shard's first run has no path yet, or (with the state
// cache) no node on the path still holds a hasher snapshot.
func (e *explorer) positionAt() int {
	switch {
	case e.snapCap == 0 || len(e.path) == 0:
		return -1
	case e.red == nil:
		// The last node is the one backtrack just advanced; it had
		// siblings at creation, so it captured its position.
		return len(e.path) - 1
	case len(e.holders) > 0:
		return e.holders[len(e.holders)-1]
	}
	return -1
}

// backtrack advances the deepest node with a requested, untried,
// non-sleeping alternative and truncates the path there; it reports
// false when the shard's subtree is exhausted.
func (e *explorer) backtrack() bool {
	for len(e.path) > 0 {
		n := e.path[len(e.path)-1]
		// n is about to change its choice or pop: either way it leaves
		// the last-dependent index.
		e.dep.truncate(len(e.path) - 1)
		if n.cut {
			// Pruned region: nothing to advance, pop straight through.
			e.popNode(n)
			continue
		}
		n.done[n.curIdx] = true
		if e.opts.SleepSets {
			// The subtree under the current choice is done: siblings
			// need not re-explore it unless dependent.
			n.sleep = n.sleep.with(n.chosen())
		}
		if i, ok := n.nextTodo(); ok {
			n.curIdx = i
			e.decisions[len(e.decisions)-1] = n.chosen()
			return true
		}
		e.popNode(n)
	}
	return false
}

// nextTodo finds the first option that is requested, unexplored and
// not sleeping. Under DPOR it may move backwards: backtrack-set
// additions land in discovery order, not option order.
func (n *node) nextTodo() (int, bool) {
	for i, o := range n.options {
		if n.todo[i] && !n.done[i] && !n.sleep.has(o) {
			return i, true
		}
	}
	return 0, false
}

// popNode removes the finished deepest node: account what was pruned,
// publish the fully-explored subtree to the state cache, fold its
// footprint summary into the parent, and recycle it.
func (e *explorer) popNode(n *node) {
	last := len(e.path) - 1
	e.path = e.path[:last]
	e.decisions = e.decisions[:e.base+last]
	if n.hsnap != nil {
		// The deepest path node is the deepest holder.
		e.pool.putSnap(n.hsnap)
		n.hsnap = nil
		e.holders = e.holders[:len(e.holders)-1]
	}
	if n.cut {
		e.cutDepth = -1
	} else {
		for i, o := range n.options {
			switch {
			case n.done[i]:
			case n.sleep.has(o):
				e.stats.SleepPruned++
			case !n.todo[i]:
				e.stats.PORPruned++
			}
		}
	}
	if e.red != nil {
		if !n.cut && (!n.subOverflow || !e.opts.DPOR) {
			sum := n.sub
			if !e.opts.DPOR {
				// Without DPOR there are no backtrack obligations to
				// replay on a hit; the entry needs no summary.
				sum = nil
			}
			e.red.cache.insert(n.stateHash, n.sleep0, sum)
		}
		if last > 0 {
			parent := e.path[last-1]
			parent.foldChild(parent.chosenFP().Packed(), n)
		}
	}
	e.pool.put(n)
}

// split carves the shallowest untried, non-sleeping alternative off
// the current DFS path and packages it as a standalone work item for
// another worker. The donor marks the option done, so every schedule
// is still explored exactly once. Splitting shallow donates the
// largest subtrees, which keeps work-stealing traffic low. The
// alternative need not be requested: under DPOR, donation requests
// everything (below); elsewhere every option already is.
//
// Under sleep sets, donation keeps the order the serial search would
// explore the branch node in. Serial search finishes the in-progress
// choice before it moves to a sibling, so the donated item inherits the
// branch node's sleep set plus that choice, filtered by independence
// against the donated option's pending operation — exactly the
// inheritance the sibling's node would receive in newNode after
// backtracking. And the donor puts the donated option to sleep beside
// marking it done, so the siblings it explores later sleep on it, as
// they would had the option been explored before them. Sleeps the
// donor accumulates after the donation are still lost to the donated
// shard, so parallel sleep-set search may execute more schedules than
// serial, but never fewer behaviours: a smaller sleep set only prunes
// less.
//
// Under DPOR, donation is how backtrack sets are exchanged across work
// items — by making the exchange unnecessary: before an option leaves
// the donor, every node on the donor's path up to the branch point is
// promoted to full expansion (todo = all options, which plain and
// sleep-set nodes already are). Races the donated
// subtree would discover against the donor's decisions then need no
// cross-shard additions: whatever thread they would request at those
// nodes is already committed. Donation therefore degrades those nodes
// from DPOR pruning back to sleep-set pruning — parallel reduced
// search may execute more schedules than serial, never fewer
// behaviours — which keeps pruning sound (and the bug set identical)
// at any worker count.
func (e *explorer) split() (*workItem, bool) {
	for d, n := range e.path {
		if n.cut {
			// Nothing below a cache cut is donatable: the region is
			// single-choice by construction.
			break
		}
		for j, opt := range n.options {
			if j == n.curIdx || n.done[j] || n.sleep.has(opt) {
				continue
			}
			for i := 0; i <= d; i++ {
				for k := range e.path[i].todo {
					e.path[i].todo[k] = true
				}
			}
			// The donated subtree's footprints will never fold into this
			// node's summary (another worker explores them), so a DPOR
			// cache entry here would replay incomplete backtrack
			// obligations on a later hit. Poison the summary; the
			// overflow propagates to ancestors through foldChild.
			n.subOverflow = true

			item := &workItem{prefix: make([]core.ThreadID, 0, e.base+d+1)}
			item.prefix = append(append(item.prefix, e.decisions[:e.base+d]...), opt)
			item.pre, item.preempted, item.vb = e.childBounds(n, opt, nil)
			sleep := n.sleep
			if e.opts.SleepSets {
				sleep = sleep.with(n.chosen())
				n.sleep = n.sleep.with(opt)
			}
			item.sleep = n.sleepAfter(sleep, n.fps[j])
			n.done[j] = true
			return item, true
		}
	}
	return nil, false
}

// Independence is core.Footprint.Commutes over the interned handles
// the scheduler publishes (via Choice.FootprintOf): different objects,
// or both reads, commute; forks order only against forks; a thread
// that has not run yet and a join on a finished child are local; other
// joins, selects and unknown operations are conservatively dependent.
// (Interned handles are bijective with names, so this is exactly the
// historical name-comparison relation.)

// Explore runs the search over body and returns its summary. The
// search is serial for Options.Workers == 1 and sharded across a
// worker pool otherwise; see parallel.go for the coordinator.
func Explore(opts Options, body func(core.T)) *Result {
	return newCoordinator(opts, body).run()
}
