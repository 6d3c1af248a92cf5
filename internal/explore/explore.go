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
	// against a bounded thread set. Threads with ids ≥ 64 are never cut
	// (conservative, matching the sleep-set bitmask limit). Bound(0)
	// explores only non-preemptive schedules; nil is unbounded.
	ThreadBound *int
	// SleepSets enables sleep-set pruning.
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
	// The state cache also turns on frontier positioning: multi-option
	// path nodes carry forkable branch snapshots (hasher state + sched
	// position digest), at most 64 live per shard, and each
	// schedule starts from the deepest one on the path — a pooled
	// runner fast-forwards the branch's decision prefix at coast speed
	// (sched.Config.FastForward) and verifies the digest on arrival —
	// instead of replaying from the root under full strategy control.
	// Positioning changes how a run reaches its frontier, never which
	// frontier it explores: serially, results are identical to a
	// root-replay search except for the positioning counters in Stats.
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
	// less across shard boundaries). A reduced search executes more
	// schedules than the serial one, because donation expands the
	// donor's DPOR nodes and two workers can explore the same state
	// before either has finished it: DPOR with the state cache measures
	// about 1.4x the serial schedule count at 2 workers and 1.25x at 4
	// on philosophers{3,1}, account{3,1}, account{2,2} and statmax{3}
	// (TestParallelReducedRatio bounds it at 1.6x).
	Workers int
	// Listeners are attached to every run (cumulative tools such as
	// coverage trackers and race detectors work as-is). With Workers >
	// 1, runs execute concurrently, so listeners must be safe for
	// concurrent use.
	Listeners []core.Listener
	// Name labels runs for RunObserver listeners.
	Name string
	// Plan filters which probes fire in every run (nil = instrument
	// everything). Programs produced by the rewrite pipeline carry a
	// plan from escape analysis; threading it here keeps thread-local
	// accesses out of the schedule space.
	Plan *instrument.Plan
}

// Bug is one erroneous schedule found during exploration.
type Bug struct {
	// Schedule replays the bug through sched.FixedSchedule or the
	// replay package.
	Schedule []core.ThreadID
	Result   *core.Result
	// Index is the 1-based number of the schedule that exposed it.
	Index int
}

// Result summarizes an exploration.
type Result struct {
	// Schedules is the number of executions performed.
	Schedules int
	// Exhausted is true when the decision tree was fully explored
	// (within the configured bounds).
	Exhausted bool
	// Bugs are the distinct failures found (deduplicated by verdict
	// and failure message/deadlock), ordered by Index.
	Bugs []Bug
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

// FirstBugIndex returns the schedule number of the first bug, or -1
// when no bug was found. (Schedule numbers are 1-based, so -1 is
// unambiguous.)
func (r *Result) FirstBugIndex() int {
	if len(r.Bugs) == 0 {
		return -1
	}
	return r.Bugs[0].Index
}

// node is one decision point along the current DFS path.
type node struct {
	options []core.ThreadID // runnable threads, exploration order
	curIdx  int             // index into options currently explored
	current core.ThreadID   // thread that was running at this point
	// preBefore is the number of preemptions used before this node.
	preBefore int
	// tbMask is the set of threads preempted before this node, as a
	// bitmask (thread-bounding state; ids ≥ 64 are never tracked, so
	// they are never cut). Maintained only while ThreadBound is set.
	tbMask uint64
	// vbObjs is the sorted set of distinct object handles charged by
	// preemptions before this node (variable-bounding state).
	// Maintained only while VariableBound is set.
	vbObjs []uint32
	// fps snapshots each option's pending-operation footprint at this
	// node, index-aligned with options (for sleep-set and DPOR
	// independence). Empty when nothing consumes independence.
	fps []core.Footprint
	// sleep marks options that need not be (re-)explored here.
	sleep map[core.ThreadID]bool

	// DPOR state (empty unless Options.DPOR), index-aligned with
	// options: todo is the backtrack set — only its members are
	// expanded — and done marks options whose subtrees completed.
	todo []bool
	done []bool

	// State-cache bookkeeping (Options.StateCache): the node's
	// canonical identity at creation, the inherited sleep set as a
	// bitmask, the subtree's footprint summary accumulated as children
	// pop, and the cut flag (this node's subtree was found in the
	// cache; the run's remaining decisions are coasted, so no nodes
	// exist below a cut).
	stateHash   uint64
	sleepMask   uint64
	maskOK      bool
	cut         bool
	sub         []uint64
	subOverflow bool

	// snap is the node's forkable branch snapshot (nil unless the
	// state cache is on, the node has siblings worth returning for and
	// the shard holds fewer than its cap): the hasher state and
	// scheduler position digest frozen at this decision point, before
	// any option was chosen. Later runs fast-forward here instead of
	// replaying from the root. Freed when the node pops — the live
	// snapshots all sit on the DFS path.
	snap *branchSnap
}

func (n *node) chosen() core.ThreadID { return n.options[n.curIdx] }

// fpOf returns the footprint snapshotted for thread t at this node;
// zero — conservatively dependent with everything — when t was not an
// option here or footprints were not captured.
func (n *node) fpOf(t core.ThreadID) core.Footprint {
	if len(n.fps) != len(n.options) {
		return core.Footprint{}
	}
	for i, o := range n.options {
		if o == t {
			return n.fps[i]
		}
	}
	return core.Footprint{}
}

// chosenFP is the footprint of the option currently being explored.
func (n *node) chosenFP() core.Footprint {
	if len(n.fps) != len(n.options) {
		return core.Footprint{}
	}
	return n.fps[n.curIdx]
}

// nodePool recycles DFS nodes (and their sleep/pendings maps) within a
// worker. A deep search allocates one node per decision point per
// path; recycling them on backtrack makes the steady-state search
// allocation-free in the engine itself.
type nodePool struct {
	free []*node
	// snaps recycles branch snapshots (their slices keep their backing
	// arrays, so steady-state snapshot-taking is allocation-free).
	snaps []*branchSnap
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
		nd.preBefore = 0
		nd.tbMask = 0
		nd.vbObjs = nd.vbObjs[:0]
		clear(nd.sleep)
		nd.fps = nd.fps[:0]
		nd.todo = nd.todo[:0]
		nd.done = nd.done[:0]
		nd.stateHash, nd.sleepMask, nd.maskOK = 0, 0, false
		nd.cut = false
		nd.sub = nd.sub[:0]
		nd.subOverflow = false
		nd.snap = nil
		return nd
	}
	return &node{current: current, sleep: map[core.ThreadID]bool{}}
}

func (p *nodePool) put(n *node) {
	p.free = append(p.free, n)
}

func (p *nodePool) getSnap() *branchSnap {
	if n := len(p.snaps); n > 0 {
		s := p.snaps[n-1]
		p.snaps = p.snaps[:n-1]
		return s
	}
	return &branchSnap{}
}

func (p *nodePool) putSnap(s *branchSnap) {
	p.snaps = append(p.snaps, s)
}

// tbAllows reports whether preempting thread t at this node respects
// the thread bound: t was already preempted on this path, or the
// preempted set still has room. Threads outside the bitmask range are
// never cut (conservative).
func (n *node) tbAllows(t core.ThreadID, bound int) bool {
	if t < 0 || t >= 64 {
		return true
	}
	if n.tbMask&(1<<uint(t)) != 0 {
		return true
	}
	return bits.OnesCount64(n.tbMask) < bound
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

// isPreemption reports whether this node's current choice switches
// away from a runnable current thread.
func (n *node) isPreemption() bool {
	if n.current == core.NoThread {
		return false
	}
	if slices.Contains(n.options, n.current) {
		return n.chosen() != n.current
	}
	return false
}

// explorer owns one shard of the decision tree: the subtree hanging
// under prefix. Decisions 0..len(prefix)-1 are replayed literally on
// every run and are not backtrack points — their sibling alternatives
// belong to other work items (or were already explored by the donor).
type explorer struct {
	opts Options
	// prefix is the inherited schedule this explorer's subtree hangs
	// under (empty for the root shard).
	prefix []core.ThreadID
	// rootSleep seeds the sleep set of the first fresh node, inherited
	// from the donor's branch node exactly as a child node inherits
	// from its parent in the serial DFS.
	rootSleep map[core.ThreadID]bool
	path      []*node
	err       error
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
	// liveSnaps counts the branch snapshots held by path nodes; new
	// nodes get none once it reaches snapCap.
	liveSnaps, snapCap int
	// Bound accounting accumulated along the replayed prefix is a pure
	// function of the prefix, so it is captured once from the shard's
	// first fully-replayed run and reinstated on fast-forwarded runs
	// (which skip the prefix Picks that would recompute it).
	prefixAccounted bool
	basePre         int
	baseTB          uint64
	baseVB          []uint32
}

// dfsStrategy drives one run: replay the prefix and the path's
// choices, extend the frontier with fresh nodes.
type dfsStrategy struct {
	e     *explorer
	depth int
	// prefixPre counts preemptions taken along the replayed prefix, so
	// the subtree's context-bound accounting matches a serial descent
	// through the same decisions.
	prefixPre int
	// prefixTB and prefixVB are the thread- and variable-bounding
	// analogues of prefixPre: the preempted-thread bitmask and the
	// charged-object set accumulated along the replayed prefix.
	prefixTB uint64
	prefixVB []uint32
}

// Name implements sched.Strategy.
func (st *dfsStrategy) Name() string { return "explore-dfs" }

// PendingFree implements sched.PendingFree: the DFS keys its pruning
// on Choice.FootprintOf and never reads Choice.Pending, so the
// scheduler can skip the per-decision PendingOp copy.
func (st *dfsStrategy) PendingFree() bool { return true }

// Pick implements sched.Strategy.
func (st *dfsStrategy) Pick(c *sched.Choice) core.ThreadID {
	e := st.e
	d := st.depth

	if d < len(e.prefix) {
		st.depth++
		e.stats.ReplayedSteps++
		want := e.prefix[d]
		if want == sched.IdleID {
			if !c.CanIdle {
				e.err = fmt.Errorf("explore: nondeterministic program: cannot idle at depth %d", d)
				return core.NoThread
			}
		} else if !slices.Contains(c.Runnable, want) {
			e.err = fmt.Errorf("explore: nondeterministic program: thread %d not runnable at depth %d", want, d)
			return core.NoThread
		}
		if c.Current != core.NoThread && want != c.Current && slices.Contains(c.Runnable, c.Current) {
			st.prefixPre++
			if t := c.Current; t >= 0 && t < 64 {
				st.prefixTB |= 1 << uint(t)
			}
			if e.opts.VariableBound != nil && c.FootprintOf != nil {
				st.prefixVB = addVBObj(st.prefixVB, c.FootprintOf(c.Current).Obj)
			}
		}
		e.notePick(c, want)
		return want
	}

	pd := d - len(e.prefix)
	if pd < len(e.path) {
		st.depth++
		e.stats.ReplayedSteps++
		n := e.path[pd]
		want := n.chosen()
		if want == sched.IdleID {
			if !c.CanIdle {
				e.err = fmt.Errorf("explore: nondeterministic program: cannot idle at depth %d", d)
				return core.NoThread
			}
			e.notePick(c, want)
			return want
		}
		if !slices.Contains(c.Runnable, want) {
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
	n := e.newNode(c, pd, st)
	e.path = append(e.path, n)
	e.notePick(c, n.chosen())
	return n.chosen()
}

// newNode builds the frontier node for choice point c at path index pd,
// applying preemption/variable/thread bounding, sleep sets and the
// exploration order (current thread first, so the first descent is the
// cheap nonpreemptive schedule). st carries the bound accounting
// accumulated along the replayed prefix, charged to the subtree's
// first fresh node.
func (e *explorer) newNode(c *sched.Choice, pd int, st *dfsStrategy) *node {
	n := e.pool.get(c.Current)

	// Inherit bound accounting and sleep set from the parent node, or
	// from the donated work item at the subtree root.
	if pd > 0 {
		parent := e.path[pd-1]
		n.preBefore = parent.preBefore
		n.tbMask = parent.tbMask
		if e.opts.VariableBound != nil {
			n.vbObjs = append(n.vbObjs, parent.vbObjs...)
		}
		if parent.isPreemption() {
			n.preBefore++
			if t := parent.current; t >= 0 && t < 64 {
				n.tbMask |= 1 << uint(t)
			}
			if e.opts.VariableBound != nil {
				n.vbObjs = addVBObj(n.vbObjs, parent.fpOf(parent.current).Obj)
			}
		}
		if e.opts.SleepSets {
			chosenFP := parent.chosenFP()
			for u := range parent.sleep {
				if parent.fpOf(u).Commutes(chosenFP) {
					n.sleep[u] = true
				}
			}
		}
	} else {
		n.preBefore = st.prefixPre
		n.tbMask = st.prefixTB
		if e.opts.VariableBound != nil {
			n.vbObjs = append(n.vbObjs, st.prefixVB...)
		}
		if e.opts.SleepSets {
			for u := range e.rootSleep {
				n.sleep[u] = true
			}
		}
	}

	// Option order: current first (if runnable), then ascending ids.
	curRunnable := slices.Contains(c.Runnable, c.Current)
	if curRunnable {
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
	if curRunnable {
		switch {
		case e.opts.PreemptionBound != nil && n.preBefore >= *e.opts.PreemptionBound:
			cut = true
		case e.opts.ThreadBound != nil && !n.tbAllows(c.Current, *e.opts.ThreadBound):
			e.stats.TBPruned += len(n.options) - 1
			cut = true
		case e.opts.VariableBound != nil && c.FootprintOf != nil &&
			!n.vbAllows(c.FootprintOf(c.Current).Obj, *e.opts.VariableBound):
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

	// Snapshot pending-operation footprints for sleep-set, DPOR,
	// state-hash and variable-bound computation (index-aligned with
	// options; FootprintOf returns zero for the idle pseudo-thread,
	// which is conservatively dependent with everything).
	if (e.opts.SleepSets || e.red != nil || e.opts.VariableBound != nil) && c.FootprintOf != nil {
		for _, id := range n.options {
			n.fps = append(n.fps, c.FootprintOf(id))
		}
	}

	// Skip initial options that are in the inherited sleep set (DPOR
	// accounts skipped options at pop time instead, since its
	// backtrack set can still grow while the subtree is in flight).
	for n.curIdx < len(n.options)-1 && n.sleep[n.options[n.curIdx]] {
		if !e.opts.DPOR {
			e.stats.SleepPruned++
		}
		n.curIdx++
	}

	if e.opts.DPOR {
		for range n.options {
			n.todo = append(n.todo, false)
			n.done = append(n.done, false)
		}
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
		n.sleepMask, n.maskOK = sleepMask(n.sleep)
		n.stateHash = e.hashState(c, n)
		if n.maskOK {
			if e.red.cache.lookup(n.stateHash, n.sleepMask, &e.red.hit) {
				ent := &e.red.hit
				e.stats.StateHits++
				if e.opts.DPOR {
					e.applySummary(ent, pd)
					n.sub = append(n.sub[:0], ent.sum[:ent.nsum]...)
				}
				n.cut = true
				e.cutDepth = pd
				n.options[0] = n.chosen()
				n.options = n.options[:1]
				n.curIdx = 0
				if e.opts.DPOR {
					n.todo = append(n.todo[:0], true)
					n.done = append(n.done[:0], false)
				}
			}
		}
	}

	// Branch snapshot: a live multi-option node is a position later
	// schedules return to, one per remaining sibling. Freeze the hasher
	// and the scheduler's position digest here — before the node's own
	// decision is taken or folded — so a later run can fast-forward the
	// decisions above this node and re-enter the DFS at the branch.
	// Single-option nodes are popped straight through on backtrack and
	// never returned to, so they carry no snapshot. Past the cap a node
	// gets none either: runs backtracking to it position from the
	// deepest snapshot above and replay the rest under strategy control.
	if e.red != nil && e.liveSnaps < e.snapCap && !n.cut && len(n.options) > 1 && c.SnapshotTo != nil {
		bs := e.pool.getSnap()
		e.red.hasher.snapshotInto(&bs.hasher)
		c.SnapshotTo(&bs.sched)
		n.snap = bs
		e.liveSnaps++
	}
	return n
}

// backtrack advances the deepest node with an untried, non-sleeping
// (and, under DPOR, backtrack-requested) alternative and truncates the
// path there; it reports false when the shard's subtree is exhausted.
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
		if e.opts.SleepSets {
			// The subtree under the current choice is done: siblings
			// need not re-explore it unless dependent.
			n.sleep[n.chosen()] = true
		}
		if e.opts.DPOR {
			n.done[n.curIdx] = true
			if i, ok := n.nextTodo(); ok {
				n.curIdx = i
				return true
			}
		} else {
			for n.curIdx+1 < len(n.options) {
				n.curIdx++
				if !n.sleep[n.options[n.curIdx]] {
					return true
				}
				e.stats.SleepPruned++
			}
		}
		e.popNode(n)
	}
	return false
}

// nextTodo finds the first option that is requested, unexplored and
// not sleeping. Unlike the plain DFS cursor it may move backwards:
// backtrack-set additions land in discovery order, not option order.
func (n *node) nextTodo() (int, bool) {
	for i, o := range n.options {
		if n.todo[i] && !n.done[i] && !n.sleep[o] {
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
	if n.snap != nil {
		e.pool.putSnap(n.snap)
		n.snap = nil
		e.liveSnaps--
	}
	if e.opts.DPOR && !n.cut {
		for i, o := range n.options {
			switch {
			case n.done[i]:
			case n.sleep[o]:
				e.stats.SleepPruned++
			case !n.todo[i]:
				e.stats.PORPruned++
			}
		}
	}
	if n.cut {
		e.cutDepth = -1
	}
	if e.red != nil {
		if !n.cut && n.maskOK && (!n.subOverflow || !e.opts.DPOR) {
			sum := n.sub
			if !e.opts.DPOR {
				// Without DPOR there are no backtrack obligations to
				// replay on a hit; the entry needs no summary.
				sum = nil
			}
			e.red.cache.insert(n.stateHash, n.sleepMask, sum)
		}
		if last > 0 {
			parent := e.path[last-1]
			parent.foldChild(parent.chosenFootprint(), n)
		}
	}
	e.pool.put(n)
}

// split carves the shallowest untried, non-sleeping alternative off
// the current DFS path and packages it as a standalone work item for
// another worker. The option is removed from the local node so every
// schedule is still explored exactly once. Splitting shallow donates
// the largest subtrees, which keeps work-stealing traffic low.
//
// The donated item inherits the branch node's sleep set filtered by
// independence against the donated option's pending operation —
// exactly the inheritance a child node would receive in newNode. The
// donor's sleeps accumulated after the donation are lost to the
// donated shard, so parallel sleep-set search may execute more
// schedules than serial, but never fewer behaviours: a smaller sleep
// set only prunes less.
//
// Under DPOR, donation is how backtrack sets are exchanged across work
// items — by making the exchange unnecessary: before an option leaves
// the donor, every node on the donor's path up to the branch point is
// promoted to full expansion (todo = all options). Races the donated
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
		for j := 0; j < len(n.options); j++ {
			if !e.opts.DPOR && j <= n.curIdx {
				continue
			}
			if e.opts.DPOR && j == n.curIdx {
				continue
			}
			opt := n.options[j]
			if n.sleep[opt] || (e.opts.DPOR && n.done[j]) {
				continue
			}
			if e.opts.DPOR {
				for i := 0; i <= d; i++ {
					for k := range e.path[i].todo {
						e.path[i].todo[k] = true
					}
				}
				// The donated subtree's footprints will never fold into
				// this node's summary (another worker explores them), so
				// a cache entry here would replay incomplete backtrack
				// obligations on a later hit. Poison the summary; the
				// overflow propagates to ancestors through foldChild.
				n.subOverflow = true
			}
			optFP := n.fpOf(opt)
			hasFPs := len(n.fps) == len(n.options)
			n.options = slices.Delete(n.options, j, j+1)
			if hasFPs {
				n.fps = slices.Delete(n.fps, j, j+1)
			}
			if e.opts.DPOR {
				n.todo = slices.Delete(n.todo, j, j+1)
				n.done = slices.Delete(n.done, j, j+1)
			}
			if j < n.curIdx {
				n.curIdx--
			}

			prefix := make([]core.ThreadID, 0, len(e.prefix)+d+1)
			prefix = append(prefix, e.prefix...)
			for i := 0; i < d; i++ {
				prefix = append(prefix, e.path[i].chosen())
			}
			prefix = append(prefix, opt)

			item := &workItem{prefix: prefix}
			if e.opts.SleepSets && hasFPs {
				for u := range n.sleep {
					if n.fpOf(u).Commutes(optFP) {
						if item.sleep == nil {
							item.sleep = make(map[core.ThreadID]bool)
						}
						item.sleep[u] = true
					}
				}
			}
			return item, true
		}
	}
	return nil, false
}

// Independence is core.Footprint.Commutes over the interned handles
// the scheduler publishes (via Choice.FootprintOf): different objects,
// or both reads, commute; unknown operations and thread-lifecycle
// operations are conservatively dependent. (Interned handles are
// bijective with names, so this is exactly the historical
// name-comparison relation.)

// Explore runs the search over body and returns its summary. The
// search is serial for Options.Workers == 1 and sharded across a
// worker pool otherwise; see parallel.go for the coordinator.
func Explore(opts Options, body func(core.T)) *Result {
	return newCoordinator(opts, body).run()
}
