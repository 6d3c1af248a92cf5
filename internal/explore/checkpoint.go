// Worker kits and parked-runner checkpoints.
//
// A workerKit is the reusable per-worker execution state: the pooled
// runner, the DFS node free list, the reduction structures (event
// hasher, canonical-state cache, DPOR last-dependent index) and the
// outcome-key intern table.
// Kits are recycled through a package-level pool, so a campaign that
// calls Explore thousands of times pays the runner/cache construction
// cost once — the state cache is invalidated by generation bump on
// checkout instead of being reallocated or zeroed.
//
// With Options.Checkpoints > 0 a kit also manages parked runners: a
// run that reaches a state-cache cut is suspended at the cut (its
// virtual threads stay blocked on their resume channels) and kept as
// a checkpoint. Before each schedule the worker asks the kit for a
// checkpoint whose parked decision sequence is a prefix of the
// schedule's replay sequence; on a match the run is resumed from
// there — skipping that many replayed steps — and on a miss the
// worker falls back to the ordinary replay path. The checkpoint pool
// is bounded: the oldest runner is abandoned beyond the budget, and
// every checkpoint is abandoned when its shard ends (a donated or
// newly taken shard hangs under a different prefix, so a stale parked
// run could never match it). Abandoning returns the runner's virtual
// threads to its pool — no goroutine ever leaks with the parked run.
package explore

import (
	"math/bits"
	"sync"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

// checkpoint is one parked run: the runner suspended at a decision
// point, the decision sequence it consumed to get there, and the
// worker state a resumed run must continue under.
type checkpoint struct {
	runner *sched.Runner
	// decisions is the schedule prefix the parked run executed; the
	// parked (re-offered) decision point is decisions[len(decisions)]
	// — not consumed, so a resumed run may pick any runnable thread
	// there.
	decisions []core.ThreadID
	// prefixPre restores the strategy's prefix preemption accounting;
	// prefixTB and prefixVB restore the thread- and variable-bounding
	// analogues.
	prefixPre int
	prefixTB  uint64
	prefixVB  []uint32
	// snap freezes the state hasher at the park point (nil when the
	// state cache is off).
	snap *hasherSnap
}

// branchSnap is a forkable branch snapshot, owned by a live DFS path
// node (node.snap): the state hasher and the scheduler's position
// digest frozen at a multi-option decision point, before the node's
// own decision. A later run positions itself at the branch by
// restoring the hasher and fast-forwarding the decisions above the
// node (sched.Config.FastForward), with the digest verified on arrival
// (Config.FFCheck). The snapshot is valid for every sibling the node
// still has — it predates the choice — and is recycled through the
// worker's nodePool when the node pops.
type branchSnap struct {
	hasher hasherSnap
	sched  sched.Snapshot
}

// workerKit is the per-worker reusable execution state.
type workerKit struct {
	runner *sched.Runner
	pool   *nodePool
	hasher *stateHasher
	cache  *stateCache
	// dep is the DPOR last-dependent index, reset per shard; pooled so
	// its tables grow once per kit rather than once per Explore call.
	dep depIndex

	// spares holds idle runners freed by abandoned checkpoints, reused
	// before constructing new ones.
	spares []*sched.Runner
	// ckpts is the bounded parked-runner pool, oldest first.
	ckpts []*checkpoint

	// outKeys interns the "verdict:outcome" histogram keys per verdict,
	// so recording a run allocates nothing once a (verdict, outcome)
	// pair has been seen. Outcome strings are interned per runner,
	// making the inner map lookups cheap and stable.
	outKeys [8]map[string]string

	// planned is the scratch buffer plan builds the next run's replay
	// sequence into.
	planned []core.ThreadID
}

// kitPool recycles worker kits process-wide. Runners keep their
// virtual-thread goroutines parked between explorations — that is the
// point — so the pool is bounded to keep the idle population small.
var (
	kitMu   sync.Mutex
	kitFree []*workerKit
)

const maxPooledKits = 16

func getKit() *workerKit {
	kitMu.Lock()
	if n := len(kitFree); n > 0 {
		k := kitFree[n-1]
		kitFree = kitFree[:n-1]
		kitMu.Unlock()
		return k
	}
	kitMu.Unlock()
	return &workerKit{runner: sched.NewRunner(), pool: newNodePool()}
}

// release returns the kit to the pool (or closes it when the pool is
// full). Any parked checkpoints are abandoned first; their runners
// stay with the kit as spares.
func (k *workerKit) release() {
	k.abandonCheckpoints()
	kitMu.Lock()
	if len(kitFree) < maxPooledKits {
		kitFree = append(kitFree, k)
		kitMu.Unlock()
		return
	}
	kitMu.Unlock()
	k.close()
}

func (k *workerKit) close() {
	k.abandonCheckpoints()
	k.runner.Close()
	for _, r := range k.spares {
		r.Close()
	}
	k.spares = nil
}

// reductionFor prepares the kit's reduction bundle for one
// exploration: reuse the hasher and (size permitting) the cache,
// invalidating cached subtrees from whatever exploration used the kit
// last.
func (k *workerKit) reductionFor(opts Options) *reduction {
	if !opts.StateCache {
		return nil
	}
	size := opts.StateCacheSize
	if size <= 0 {
		size = DefaultStateCacheSize
	}
	n := 1 << bits.Len(uint(size-1))
	if k.cache == nil || len(k.cache.ents) != n {
		k.cache = newStateCache(size)
	} else {
		k.cache.reset()
	}
	if k.hasher == nil {
		k.hasher = newStateHasher()
	}
	r := &reduction{hasher: k.hasher, cache: k.cache}
	r.listeners = append(r.listeners, core.Listener(k.hasher))
	r.listeners = append(r.listeners, opts.Listeners...)
	return r
}

// outKey returns the interned outcome-histogram key for a run.
func (k *workerKit) outKey(v core.Verdict, outcome string) string {
	i := int(v)
	if i >= len(k.outKeys) {
		return v.String() + ":" + outcome
	}
	m := k.outKeys[i]
	if m == nil {
		m = make(map[string]string, 8)
		k.outKeys[i] = m
	}
	key, ok := m[outcome]
	if !ok {
		key = v.String() + ":" + outcome
		if len(m) < 1<<12 {
			m[outcome] = key
		}
	}
	return key
}

// freshRunner hands the worker a runner for its next run, preferring
// spares freed by abandoned checkpoints.
func (k *workerKit) freshRunner() *sched.Runner {
	if n := len(k.spares); n > 0 {
		r := k.spares[n-1]
		k.spares = k.spares[:n-1]
		return r
	}
	return sched.NewRunner()
}

// park registers the kit's active runner — just parked at a
// state-cache cut — as a checkpoint and installs a fresh active
// runner. Beyond the budget the oldest checkpoint is abandoned; its
// runner (threads back in its pool) becomes a spare.
func (k *workerKit) park(e *explorer, st *dfsStrategy, red *reduction, budget int) {
	ck := &checkpoint{runner: k.runner, prefixPre: st.prefixPre, prefixTB: st.prefixTB}
	ck.prefixVB = append(ck.prefixVB, st.prefixVB...)
	ck.decisions = make([]core.ThreadID, 0, len(e.prefix)+len(e.path))
	ck.decisions = append(ck.decisions, e.prefix...)
	for _, n := range e.path {
		ck.decisions = append(ck.decisions, n.chosen())
	}
	if red != nil {
		ck.snap = red.hasher.snapshot()
	}
	k.ckpts = append(k.ckpts, ck)
	if len(k.ckpts) > budget {
		old := k.ckpts[0]
		copy(k.ckpts, k.ckpts[1:])
		k.ckpts = k.ckpts[:len(k.ckpts)-1]
		old.runner.Abandon()
		k.spares = append(k.spares, old.runner)
	}
	k.runner = k.freshRunner()
}

// plan rebuilds the kit's scratch copy of the next run's replay
// sequence — the shard prefix plus the path's current choices — and
// returns it. The returned slice aliases the kit's buffer and is valid
// until the next plan call.
func (k *workerKit) plan(e *explorer) []core.ThreadID {
	k.planned = k.planned[:0]
	k.planned = append(k.planned, e.prefix...)
	for _, n := range e.path {
		k.planned = append(k.planned, n.chosen())
	}
	return k.planned
}

// takeCheckpoint finds, removes and returns the deepest checkpoint
// whose parked decision sequence is a prefix of planned (the next
// run's replay sequence, see plan) and at least minDepth decisions
// long — the run can continue from there instead of replaying from the
// root. minDepth is the depth of the deepest live branch snapshot on
// the path: a checkpoint strictly shallower than the snapshot loses to
// fast-forwarding, while one of equal depth wins (a resume skips even
// the fast-forward). It returns nil when no checkpoint qualifies,
// which is the common case: depth-first backtracking deviates above
// the cut a checkpoint was parked at, so checkpoints mostly age out.
// The lookup stays because it is what makes resume-instead-of-replay
// correct whenever a match does exist (and cheap: one prefix
// comparison per retained checkpoint).
func (k *workerKit) takeCheckpoint(planned []core.ThreadID, minDepth int) *checkpoint {
	if len(k.ckpts) == 0 {
		return nil
	}
	best := -1
	for i, ck := range k.ckpts {
		if len(ck.decisions) > len(planned) || len(ck.decisions) < minDepth {
			continue
		}
		if best >= 0 && len(ck.decisions) <= len(k.ckpts[best].decisions) {
			continue
		}
		match := true
		for j, d := range ck.decisions {
			if planned[j] != d {
				match = false
				break
			}
		}
		if match {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	ck := k.ckpts[best]
	copy(k.ckpts[best:], k.ckpts[best+1:])
	k.ckpts = k.ckpts[:len(k.ckpts)-1]
	return ck
}

// abandonCheckpoints tears down every parked run, returning each
// runner's threads to its pool and the runners themselves to the
// spares list.
func (k *workerKit) abandonCheckpoints() {
	for _, ck := range k.ckpts {
		ck.runner.Abandon()
		k.spares = append(k.spares, ck.runner)
	}
	k.ckpts = k.ckpts[:0]
}
