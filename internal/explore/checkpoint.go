// Worker kits and branch snapshots.
//
// A workerKit is the reusable per-worker execution state: the pooled
// runner, the DFS node free list, the reduction structures (event
// hasher, canonical-state cache, DPOR last-dependent index) and the
// outcome-key intern table.
// Kits are recycled through a package-level pool, so a campaign that
// calls Explore thousands of times pays the runner/cache construction
// cost once — the state cache is invalidated by generation bump on
// checkout instead of being reallocated or zeroed.
package explore

import (
	"sync"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

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

// maxLiveSnaps caps the branch snapshots a shard holds at once, so
// 10,000-step paths do not keep one per multi-option node; deeper
// nodes position from the deepest snapshot above them.
const maxLiveSnaps = 64

// workerKit is the per-worker reusable execution state.
type workerKit struct {
	runner *sched.Runner
	pool   *nodePool
	hasher *stateHasher
	cache  *stateCache
	// dep is the DPOR last-dependent index, reset per shard; pooled so
	// its tables grow once per kit rather than once per Explore call.
	dep depIndex

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

// release returns the kit to the pool, or closes its runner when the
// pool is full.
func (k *workerKit) release() {
	kitMu.Lock()
	if len(kitFree) < maxPooledKits {
		kitFree = append(kitFree, k)
		kitMu.Unlock()
		return
	}
	kitMu.Unlock()
	k.runner.Close()
}

// reductionFor prepares the kit's reduction bundle for one
// exploration: reuse the hasher and the cache, invalidating cached
// subtrees from whatever exploration used the kit last.
func (k *workerKit) reductionFor(opts Options) *reduction {
	if !opts.StateCache {
		return nil
	}
	if k.cache == nil {
		k.cache = newStateCache()
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
