// Parallel sharded exploration: a coordinator partitions the DFS
// decision tree into schedule-prefix work items, a pool of workers
// replays each prefix and explores its subtree with the serial DFS
// machinery, and a merge layer aggregates outcomes, deduplicates bugs
// and enforces the global budgets (MaxSchedules, StopAtFirstBug).
//
// The design is work-sharing rather than static partitioning: the
// search starts as one shard (the whole tree), and a worker donates
// the shallowest untried branch of its path whenever other workers are
// starving. Donation removes the branch from the donor, so the shards
// partition the tree — every schedule is executed exactly once, by
// exactly one worker. Replaying a donated prefix costs one program
// execution, the same price the stateless search already pays for
// every schedule, so sharding adds no asymptotic overhead.
//
// With Workers == 1 there is never a starving worker, so no donation
// happens and the exploration order — schedule numbering, bug indices,
// outcome counts — is byte-identical to the serial engine.
package explore

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

// workItem is one shard of the decision tree: the subtree below a
// schedule prefix, plus the sleep set and bound accounting the subtree
// root inherits from the donor's branch node (see explorer.childBounds).
type workItem struct {
	prefix []core.ThreadID
	sleep  threadSet
	// pre, preempted and vb are the preemptions taken, the preempted
	// threads and the sorted charged-object set along prefix.
	pre       int
	preempted threadSet
	vb        []uint32
}

// coordinator owns the work queue, the global budgets and the merged
// result of a sharded exploration.
type coordinator struct {
	opts    Options
	body    func(core.T)
	workers int
	labels  *phaseLabels
	snapCap int // per-shard hasher snapshot cap; 0 = root replay only

	// mu guards the queue/idle/closed scheduling state; cond signals
	// queue pushes and shutdown.
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*workItem
	idle   int
	closed bool

	// starving counts workers currently waiting for an item; the fast
	// path of needWork reads it without the lock.
	starving atomic.Int32

	// reserved hands out schedule budget slots; executed counts runs
	// actually performed (Result.Schedules and core.Bug.Index). truncated
	// records that the budget cut the search short.
	reserved  atomic.Int64
	executed  atomic.Int64
	truncated atomic.Bool
	stopping  atomic.Bool

	// resMu guards the merged results.
	resMu    sync.Mutex
	bugs     core.BugLog
	outcomes map[string]int
	stats    Stats
	err      error
}

func newCoordinator(opts Options, body func(core.T)) *coordinator {
	if opts.MaxSchedules <= 0 {
		opts.MaxSchedules = 10000
	}
	if opts.DPOR {
		opts.SleepSets = true
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	c := &coordinator{
		opts:     opts,
		body:     body,
		workers:  workers,
		labels:   newPhaseLabels(opts.Context),
		snapCap:  maxLiveSnaps,
		outcomes: map[string]int{},
	}
	if len(opts.Listeners) > 0 {
		// Fast-forwarded decisions reach no listener; listeners are
		// promised whole runs.
		c.snapCap = 0
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// run executes the sharded search to completion and merges the result.
func (c *coordinator) run() *Result {
	if ctx := c.opts.Context; ctx != nil {
		unhook := context.AfterFunc(ctx, c.stop)
		defer unhook()
	}
	c.push(&workItem{}) // the root shard: the whole tree
	var cache *stateCache
	if c.opts.StateCache {
		cache = getCache()
		defer putCache(cache)
	}
	var wg sync.WaitGroup
	for i := 0; i < c.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker checks out a kit — pooled runner, node free
			// list and, when the state cache is on, its event hasher —
			// reused across every schedule, shard and Explore call (see
			// checkpoint.go). The canonical-state cache is the search's:
			// every worker reads and writes the one table, so a subtree
			// one worker finished cuts the equivalent subtree on every
			// other (see stateCache for why that is sound).
			kit := getKit()
			defer kit.release()
			red := kit.reductionFor(c.opts, cache)
			for {
				item := c.take()
				if item == nil {
					return
				}
				c.exploreItem(kit, red, item)
			}
		}()
	}
	wg.Wait()

	res := &Result{
		Schedules: int(c.executed.Load()),
		BugLog:    c.bugs,
		Outcomes:  c.outcomes,
		Stats:     c.stats,
		Err:       c.err,
	}
	// The tree was fully explored iff no budget truncation and no
	// early stop (first bug, replay divergence) occurred.
	res.Exhausted = c.err == nil && !c.truncated.Load() && !c.stopping.Load()
	return res
}

// exploreItem runs the DFS over one shard, donating branches to
// starving workers and observing the global budgets. kit and red are
// the calling worker's reusable execution state.
//
// Frontier positioning: depth-first backtracking visits branches
// consecutively, so every run after the shard's first fast-forwards to
// a branch on the path (explorer.positionAt) — the node backtrack just
// advanced, or under the state cache the deepest node still holding a
// hasher snapshot — and falls back to a from-the-root replay only when
// there is none. The DFS itself is untouched: positioning changes how a
// run reaches its frontier, never which frontier it explores, so serial
// results are byte-identical to a root-replay search. It returns the
// shard's explorer.
func (c *coordinator) exploreItem(kit *workerKit, red *reduction, item *workItem) *explorer {
	kit.dep.reset()
	e := &explorer{
		opts: c.opts, decisions: append(kit.decisions[:0], item.prefix...), base: len(item.prefix),
		root: item, pool: kit.pool, red: red, dep: &kit.dep, cutDepth: -1, snapCap: c.snapCap,
	}
	defer func() {
		kit.decisions = e.decisions[:0]
		c.resMu.Lock()
		c.stats.add(e.stats)
		c.resMu.Unlock()
	}()
	st := &dfsStrategy{e: e}
	listeners := c.opts.Listeners
	if red != nil {
		listeners = red.listeners
	}
	cfg := sched.Config{
		Strategy:       st,
		Listeners:      listeners,
		MaxSteps:       c.opts.MaxSteps,
		Name:           c.opts.Name,
		Plan:           c.opts.Plan,
		RecordSchedule: true,
		SkipTiming:     true,
	}
	for {
		if c.stopping.Load() {
			return e
		}
		if c.reserved.Add(1) > int64(c.opts.MaxSchedules) {
			c.truncated.Store(true)
			return e
		}
		st.depth = 0
		cfg.FastForward, cfg.FFCheck = nil, nil

		c.labels.enter(phasePosition)
		at := e.positionAt()
		if at >= 0 {
			// Replay the decisions above the branch at coast speed (no
			// Pick, no listener fan-out), restoring the hasher frozen at
			// the node, and verify the position digest on arrival. The
			// strategy's cursor starts at the branch; its first Pick is
			// the replay of the branch node's current choice.
			n := e.path[at]
			st.depth = e.base + at
			e.stats.CheckpointHits++
			e.stats.RestoredSteps += st.depth
			if red != nil {
				red.hasher.restore(n.hsnap)
			}
			cfg.FastForward = e.decisions[:st.depth]
			cfg.FFCheck = &n.pos
		} else {
			e.stats.CheckpointMisses++
			if red != nil {
				// The hash chains are a pure function of the decision
				// sequence; a from-scratch run replays its prefix from
				// scratch, so the hasher rebuilds from scratch too.
				red.hasher.reset()
			}
		}
		c.labels.enter(phaseDrive)
		runRes := kit.runner.Start(cfg, c.body)
		index := int(c.executed.Add(1))
		// Any scheduler steps beyond the decisions this strategy
		// consumed were coasted below a cut.
		e.stats.TotalSteps += int(runRes.Steps)
		if tail := runRes.Steps - int64(st.depth); tail > 0 {
			e.stats.CoastedSteps += int(tail)
		}
		if at >= 0 && runRes.Diverged && e.err == nil {
			e.err = fmt.Errorf("explore: nondeterministic program: fast-forward to depth %d diverged", e.base+at)
		}
		c.labels.enter(phaseRecord)
		c.record(kit, runRes, index, e.err)
		c.labels.exit()
		if c.stopping.Load() {
			return e
		}
		for c.needWork() {
			donated, ok := e.split()
			if !ok {
				break
			}
			c.push(donated)
		}
		if !e.backtrack() {
			return e // shard exhausted
		}
	}
}

// record merges one run into the global result and triggers the
// global stop on errors and (with StopAtFirstBug) on the first bug.
func (c *coordinator) record(kit *workerKit, runRes *core.Result, index int, runErr error) {
	key := kit.outKey(runRes.Verdict, runRes.Outcome)
	stopFirst := false
	c.resMu.Lock()
	c.outcomes[key]++
	switch {
	case runErr != nil:
		if c.err == nil {
			c.err = runErr
		}
	case runRes.Verdict.Bug():
		// The run result lives in the worker's pooled runner and is
		// overwritten by its next run; the log keeps a deep copy.
		c.bugs.Add(runRes, index)
		stopFirst = c.opts.StopAtFirstBug
	}
	c.resMu.Unlock()
	if runErr != nil || stopFirst {
		c.stop()
	}
}

// stop winds the search down: workers finish their in-flight schedule
// and exit, waiters wake and exit.
func (c *coordinator) stop() {
	c.stopping.Store(true)
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// push enqueues a shard and wakes one waiter.
func (c *coordinator) push(item *workItem) {
	c.mu.Lock()
	c.queue = append(c.queue, item)
	c.cond.Signal()
	c.mu.Unlock()
}

// take dequeues a shard (LIFO, to keep the global order depth-first
// and the queue small) or returns nil when the search is over: stopped,
// or every worker idle with an empty queue (tree exhausted).
func (c *coordinator) take() *workItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idle++
	c.starving.Add(1)
	defer func() {
		c.idle--
		c.starving.Add(-1)
	}()
	for {
		if c.closed {
			return nil
		}
		if n := len(c.queue); n > 0 {
			item := c.queue[n-1]
			c.queue = c.queue[:n-1]
			return item
		}
		if c.idle == c.workers {
			c.closed = true
			c.cond.Broadcast()
			return nil
		}
		c.cond.Wait()
	}
}

// needWork reports whether donation would help: some worker is waiting
// and the queue cannot feed them all. The starving fast path keeps the
// serial (Workers == 1) engine lock-free here — a single worker can
// never be starving while it is running.
func (c *coordinator) needWork() bool {
	want := int(c.starving.Load())
	if want == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed && len(c.queue) < want
}
