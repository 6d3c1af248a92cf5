// The reduction layer: dynamic partial-order reduction and canonical-
// state caching for the DFS engine. Both prune schedules that are
// provably redundant — they revisit a state some other schedule
// already covers — so the same deduplicated bug set is reachable in a
// fraction of the schedules (pinned by TestReducedEquivalence across
// the whole program repository).
//
// # Independence
//
// Everything keys on core.Footprint.Commutes over the (operation,
// interned object handle) pairs the scheduler already publishes as
// pending operations: two operations commute when they target
// different objects, or are both reads. Thread lifecycle is precise: a
// thread that has not run yet executes only its own code up to its
// first probe, and a join whose child has finished reads a final state,
// so both are local like a yield; a fork orders only against other
// forks (thread-id assignment). The rest of the relation is
// conservative — a join on a running child, a select and an
// undescribed operation are dependent with everything — which costs
// pruning, never soundness.
//
// # DPOR backtrack sets
//
// With Options.DPOR, a fresh node commits to exploring only its first
// option. When a later decision point on the same path has a pending
// operation that does not commute with an earlier node's chosen
// operation by another thread, the pending thread is added to that
// earlier node's backtrack set (Flanagan & Godefroid's lazy scheme,
// without the clock-vector refinement — spurious additions cost extra
// schedules, never coverage). A node is popped only when its backtrack
// set is drained, so additions made while its subtree is in flight are
// always honored. Options never added to any backtrack set are the
// reduction: their reorderings are covered by a representative
// schedule elsewhere in the tree.
//
// A run can also end with threads still runnable: after an assertion
// failure, or at the step limit. No node is created at that last
// decision point, so the scheduler hands it to the strategy once
// (sched.RunEnder) and the operations left pending there are checked
// against the path like a fresh node's options (endAnalyze). One
// difference: a thread that has not run yet counts as universal there.
// Mid-run its start is local because its first real operation becomes
// its pending operation at a later node and is checked then; at the
// end of a run there is no later node, so that operation is unknown
// and may conflict with anything. Without this check a precise
// lifecycle would be unsound: a failing run's unchecked threads are
// exactly the races that reorder its failure.
//
// Finding "the deepest earlier dependent node" does not walk the path.
// Independence is a function of five footprint classes (core.DepClass)
// and object identity, so a last-dependent index over the path keeps,
// per thread, the deepest node of any class, the deepest universal one
// and the deepest fork, and per (object, thread) the deepest read and
// write; each lookup
// is a maximum over threads (depIndex). The index extends lazily at
// query time and truncates with the path, so a lookup costs O(threads)
// where scanning the path back from the frontier costs O(depth) — the
// difference between linear and quadratic DPOR on long traces. It
// returns exactly the node that scan finds (the scan survives as the
// test oracle), so it changes the cost of DPOR, not which backtrack
// points are added.
//
// # Canonical-state cache
//
// With Options.StateCache, a per-worker listener folds every executed
// event into per-thread hash chains, linking chains through per-object
// "last writer" hashes (objects are folded by a hash of their name, not
// their intern handle, so the hashes and the search's counts do not
// depend on what else the process interned) so that two schedule
// prefixes hash equal iff
// they execute the same per-thread event sequences in the same
// conflict order — i.e. iff they are linearizations of the same
// partial order and therefore reach the same program state. When a
// fresh node's state hash is already in the cache, its whole subtree
// is cut: the equivalent subtree was fully explored before. Soundness
// conditions on a hit:
//
//   - the cached exploration's inherited sleep set must be a subset of
//     the current one (it explored at least as much);
//   - under DPOR, the cached subtree's footprint summary — the
//     operations its runs executed, and those they left pending when
//     they ended early — is replayed against the current path, adding
//     backtrack points exactly as the skipped operations would have
//     (the stateful-DPOR fix: cutting a subtree must not also cut the
//     race reversals it would have requested).
//
// The cache is a bounded direct-mapped table, one per search and
// shared by its workers: collisions overwrite, which forfeits pruning
// but never soundness.
package explore

import (
	"sync"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

// Stats counts what the reduction layer did during a search. All
// fields are monotone counters merged across workers. The JSON field
// names are pinned: cmd/explore -json emits them and the CI reduction
// gate parses them.
type Stats struct {
	// SleepPruned counts the options sleep sets kept a node from
	// exploring: the options still asleep and unexplored when a node
	// that was not cut by the state cache pops. Nodes a search stops
	// or is cut in before they pop are not counted.
	SleepPruned int `json:"sleep_pruned"`
	// PORPruned counts node options never added to a DPOR backtrack
	// set — subtrees proven redundant and not explored.
	PORPruned int `json:"por_pruned"`
	// Backtracks counts DPOR backtrack-set additions beyond each
	// node's first option (including conservative additions replayed
	// from cached subtree summaries).
	Backtracks int `json:"backtracks"`
	// StateHits counts subtrees cut by the canonical-state cache.
	StateHits int `json:"state_hits"`
	// VBPruned counts node options cut by the variable bound
	// (Options.VariableBound): preemptive siblings dropped because the
	// current thread's pending object was outside a full charged set.
	VBPruned int `json:"vb_pruned"`
	// TBPruned counts node options cut by the thread bound
	// (Options.ThreadBound): preemptive siblings dropped because the
	// current thread was outside a full preempted set.
	TBPruned int `json:"tb_pruned"`
	// ReplayedSteps counts scheduler steps spent re-establishing
	// already-known state under strategy control: schedule-prefix and
	// path-replay decisions. This is the replay tax DFS pays for
	// statelessness, which positioning (in every mode, see
	// Options.StateCache) moves to RestoredSteps: a positioned run
	// replays only its branch node's decision, and under the state cache
	// whatever lies between that node and the deepest hasher snapshot
	// above it.
	ReplayedSteps int `json:"replayed_steps"`
	// CoastedSteps counts the steps runs coasted below state-cache
	// cuts: a cut subtree is already explored, so the scheduler
	// finishes the run under its nonpreemptive rule without strategy
	// round trips. Zero without the state cache.
	CoastedSteps int `json:"coasted_steps"`
	// NovelSteps counts decisions taken at fresh frontier nodes — the
	// steps that visit new state.
	NovelSteps int `json:"novel_steps"`
	// CheckpointHits counts schedules positioned by fast-forwarding to
	// a branch on the path (see Options.StateCache) instead of replayed
	// from the root under full strategy control; CheckpointMisses counts
	// the rest: each shard's first run, runs of a search with
	// Listeners, and under the state cache runs with no hasher snapshot
	// left on the path. Every schedule is exactly one or the other, so
	// hits + misses == schedules executed.
	CheckpointHits   int `json:"checkpoint_hits"`
	CheckpointMisses int `json:"checkpoint_misses"`
	// RestoredSteps counts the decisions fast-forwards replayed without
	// strategy round trips or listener fan-out.
	RestoredSteps int `json:"restored_steps"`
	// TotalSteps counts every scheduler step of every schedule. The
	// step conservation law — ReplayedSteps + NovelSteps +
	// RestoredSteps + CoastedSteps == TotalSteps — holds for every
	// healthy exploration and is pinned repo-wide by
	// TestCheckpointConservation.
	TotalSteps int `json:"total_steps"`
}

func (s *Stats) add(o Stats) {
	s.SleepPruned += o.SleepPruned
	s.PORPruned += o.PORPruned
	s.Backtracks += o.Backtracks
	s.StateHits += o.StateHits
	s.VBPruned += o.VBPruned
	s.TBPruned += o.TBPruned
	s.ReplayedSteps += o.ReplayedSteps
	s.CoastedSteps += o.CoastedSteps
	s.NovelSteps += o.NovelSteps
	s.CheckpointHits += o.CheckpointHits
	s.CheckpointMisses += o.CheckpointMisses
	s.RestoredSteps += o.RestoredSteps
	s.TotalSteps += o.TotalSteps
}

// subCap bounds a node's subtree footprint summary. Benchmark
// programs touch a handful of distinct (op, object) pairs; a subtree
// that exceeds the cap is simply not cached under DPOR (overflowed
// summaries cannot replay their backtrack obligations).
const subCap = 24

// word-level FNV-1a fold, shared with the scheduler's position digests
// through core so the constants cannot drift.
const fnvOffset = core.HashOffset

func mix(h, v uint64) uint64 { return core.FoldHash(h, v) }

// stateHasher is the per-worker listener that folds the run's event
// stream into per-thread hash chains. It is location-blind (it must
// not reinstate the per-probe call-site lookup) and is reset at the
// start of every run that replays from the root, or restored from the
// snapshot a positioned run fast-forwards to, so the chains depend
// only on the decision sequence.
// objSlot is one object's conflict-chain state, indexed by the
// object's interned handle. An entry is live only when its gen
// matches the hasher's current generation — resetting the hasher for
// the next run is a counter bump, not a table clear (the hasher runs
// on every event of every schedule, so its per-run reset and per-event
// lookups must not touch maps).
type objSlot struct {
	gen uint32
	// wh is the hash of the last conflicting ("write-class") event on
	// the object; rh xor-accumulates the reads since (reads commute,
	// so their order must not influence the hash).
	wh uint64
	rh uint64
	// name caches the object's content hash (core.InternedNameHash),
	// which the chains fold in place of the handle: handles depend on
	// the process's intern history, and a hash folding them would make
	// cache placement, and so the reduced search's counts, depend on it
	// too. It outlives generations (0 = not looked up yet).
	name uint64
}

type stateHasher struct {
	chains []uint64
	// objs is indexed by interned object handle (handles are small and
	// dense); see objSlot for the generation scheme.
	objs []objSlot
	gen  uint32
	// whFork chains fork events (the OpFork case in OnEvent): forks
	// assign thread ids in execution order, so their relative order is
	// observable even across unrelated parents and must never be
	// hashed away.
	whFork uint64
	// timeH folds virtual-time-relevant decision positions: the step
	// index of every sleep execution (a sleeper's wake deadline is a
	// function of the step it slept at, so two prefixes whose sleeps
	// land on different steps are different states even when their
	// event chains match) and of every idle (time-warp) decision. Fed
	// by explorer.notePick, since neither position is visible in the
	// event stream.
	timeH uint64
}

func newStateHasher() *stateHasher {
	return &stateHasher{gen: 1}
}

// NeedsLocations implements core.LocationIndifferent: the hasher never
// reads event locations, so attaching it must not turn on per-probe
// location capture.
func (sh *stateHasher) NeedsLocations() bool { return false }

func (sh *stateHasher) reset() {
	sh.chains = sh.chains[:0]
	sh.whFork = 0
	sh.timeH = 0
	sh.gen++
	if sh.gen == 0 { // wrapped: invalidate the slow way once
		clear(sh.objs)
		sh.gen = 1
	}
}

// slot returns the live chain state for an object handle, growing the
// table and refreshing stale generations on the way.
func (sh *stateHasher) slot(obj uint32) *objSlot {
	if int(obj) >= len(sh.objs) {
		grown := make([]objSlot, int(obj)+16)
		copy(grown, sh.objs)
		sh.objs = grown
	}
	sl := &sh.objs[obj]
	if sl.gen != sh.gen {
		sl.gen, sl.wh, sl.rh = sh.gen, 0, 0
	}
	if sl.name == 0 {
		sl.name = core.InternedNameHash(obj)
	}
	return sl
}

// hasherSnap is a frozen copy of a stateHasher, taken at a
// multi-option path node (node.hsnap): a run fast-forwarded to the
// branch later must continue folding events onto exactly the chains
// the prefix built, even though the (shared, per-worker) hasher has
// been reset and reused by other runs in between.
type hasherSnap struct {
	chains []uint64
	objK   []uint32
	objW   []uint64
	objR   []uint64
	whFork uint64
	timeH  uint64
}

// snapshotInto freezes the hasher into s, reusing s's backing arrays:
// hasher snapshots are taken at every multi-option path node on the
// exploration hot path, so the copy must not allocate once the pooled
// snapshot has grown to the program's working size.
func (sh *stateHasher) snapshotInto(s *hasherSnap) {
	s.chains = append(s.chains[:0], sh.chains...)
	s.objK = s.objK[:0]
	s.objW = s.objW[:0]
	s.objR = s.objR[:0]
	s.whFork = sh.whFork
	s.timeH = sh.timeH
	for i := range sh.objs {
		sl := &sh.objs[i]
		if sl.gen == sh.gen && (sl.wh != 0 || sl.rh != 0) {
			s.objK = append(s.objK, uint32(i))
			s.objW = append(s.objW, sl.wh)
			s.objR = append(s.objR, sl.rh)
		}
	}
}

func (sh *stateHasher) restore(s *hasherSnap) {
	sh.reset()
	sh.chains = append(sh.chains, s.chains...)
	for i, k := range s.objK {
		sl := sh.slot(k)
		sl.wh, sl.rh = s.objW[i], s.objR[i]
	}
	sh.whFork = s.whFork
	sh.timeH = s.timeH
}

func (sh *stateHasher) chain(t core.ThreadID) uint64 {
	for int(t) >= len(sh.chains) {
		sh.chains = append(sh.chains, mix(fnvOffset, uint64(len(sh.chains))+1))
	}
	return sh.chains[t]
}

// OnEvent implements core.Listener: fold one executed event.
func (sh *stateHasher) OnEvent(ev *core.Event) {
	t := ev.Thread
	if t < 0 {
		return
	}
	h := sh.chain(t)
	obj := ev.NameID
	switch ev.Op {
	case core.OpYield, core.OpSleep, core.OpEnd, core.OpOutcome, core.OpFail:
		// Local-only effects: no shared object, program order suffices.
		h = mix(mix(h, uint64(ev.Op)), uint64(ev.Value))
	case core.OpRead:
		// Reads observe the object's last write but do not advance it;
		// the xor accumulator keeps concurrent reads order-insensitive.
		sl := sh.slot(obj)
		h = mix(mix(mix(h, uint64(ev.Op)), sl.name), uint64(ev.Value))
		h = mix(h, sl.wh)
		sl.rh ^= h
	case core.OpBlock:
		// A blocked acquire observes the lock's state without changing
		// it: fold the observation, leave the object chain alone.
		sl := sh.slot(obj)
		h = mix(mix(mix(h, uint64(ev.Op)), sl.name), sl.wh)
	case core.OpFork:
		// Forks order globally (thread-id assignment) and locally.
		h = mix(mix(mix(h, uint64(ev.Op)), uint64(ev.Value)), sh.whFork)
		sh.whFork = h
	case core.OpJoin:
		// Joining folds the joined thread's final chain: the joiner's
		// continuation depends on everything the child did.
		child := core.ThreadID(ev.Value)
		h = mix(mix(h, uint64(ev.Op)), sh.chain(child))
	default:
		// Write-class: conflicts with every other operation on obj.
		sl := sh.slot(obj)
		h = mix(mix(mix(h, uint64(ev.Op)), sl.name), uint64(ev.Value))
		h = mix(mix(h, sl.wh), sl.rh)
		sl.wh = h
		sl.rh = 0
	}
	sh.chains[t] = h
}

// cacheSlot is one direct-mapped cache slot: 32 bytes and no
// pointers, so the slot table is allocated unscanned and the collector
// never walks it (a slice header per slot would make every GC cycle
// scan every pooled table). The slot's subtree summary lives out of
// line in its stripe's arena at arena[off:off+nsum]; the words up to
// off+ncap are reserved for the slot, so a later insert whose summary
// fits reuses them. An entry is live only when its gen matches the
// cache's current generation — bumping the generation invalidates the
// whole table without touching its slots, which is what lets the
// pooled table be reused across explorations instead of zeroing (or
// reallocating) it per Explore call.
type cacheSlot struct {
	hash  uint64
	sleep threadSet // inherited sleep set at exploration
	gen   uint32
	off   uint32 // start of the slot's range in its stripe's arena
	nsum  uint8  // summary words stored at off
	ncap  uint8  // words reserved at off (nsum <= ncap <= subCap)
}

// stateCache is the bounded canonical-state table. One per search,
// read and written by every worker: an entry asserts only "an
// equivalent subtree was fully explored under this sleep set", a claim
// that does not depend on which worker or shard explored it — a
// worker's hits already cross shards with different prefixes. An entry
// is a slot plus its summary range, too wide to publish atomically, so
// both are guarded by striped locks: stripe s guards the slots i with
// i%cacheStripes == s and the arena their summaries live in. A lookup
// copies a hit's summary out under its lock, so readers never see an
// entry another worker is overwriting.
//
// Memory: the slot table is 1 MB. An arena grows only with the
// summaries its slots store, and never past what they would occupy
// inline (arenaCap): an arena that would outgrow it is compacted to its
// live ranges first. So a table never holds more than an inline
// layout's ~7 MB, and a typical search's summaries take a few hundred
// KB. (Reserving a whole subCap range per slot would drop the
// compaction, but it triples the arena: account{3,1} writes 4,409 slots,
// 846 KB at full size against 270 KB as stored.)
type stateCache struct {
	mask    uint64
	gen     uint32
	slots   []cacheSlot
	stripes [cacheStripes]cacheStripe
}

// cacheStripe is one slot lock and the summary arena it guards, padded
// to its own cache line so workers taking different stripes do not
// contend on the line. The arena is pointer-free like the slots; it is
// appended to and read only under the lock.
type cacheStripe struct {
	sync.Mutex
	arena []uint64
	_     [32]byte
}

// stateCacheSize is the slot count of a search's table (a power of
// two; 32-byte slots make it 1 MB).
const stateCacheSize = 1 << 15

// cacheStripes is the number of slot locks. A lock is held for one
// slot and summary copy, so a few dozen stripes keep two workers from
// meeting on a lock except by rare coincidence.
const cacheStripes = 64

// arenaCap bounds a stripe's arena in words: its slots' summaries at
// full size, what they took when summaries were stored in the slots.
const arenaCap = stateCacheSize / cacheStripes * subCap

func newStateCache() *stateCache {
	return &stateCache{mask: stateCacheSize - 1, gen: 1, slots: make([]cacheSlot, stateCacheSize)}
}

// reset invalidates every entry in O(stripes) by advancing the
// generation and truncating the arenas. Cached subtree identities are
// only meaningful within one exploration of one program, so a recycled
// cache must start empty. It must not run while a search is using the
// cache.
func (c *stateCache) reset() {
	c.gen++
	if c.gen == 0 { // generation counter wrapped: invalidate the slow way once
		clear(c.slots)
		c.gen = 1
	}
	for i := range c.stripes {
		c.stripes[i].arena = c.stripes[i].arena[:0]
	}
}

// lookup reports whether the cache holds a usable entry for the state
// — same hash, explored under a sleep set no larger than the current
// one — and on a hit appends the entry's summary to dst, which the
// caller owns.
func (c *stateCache) lookup(hash uint64, sleep threadSet, dst []uint64) ([]uint64, bool) {
	i := hash & c.mask
	st := &c.stripes[i%cacheStripes]
	st.Lock()
	s := &c.slots[i]
	// A cached run that slept more than we would explored less.
	ok := s.gen == c.gen && s.hash == hash && s.sleep&^sleep == 0
	if ok {
		dst = append(dst, st.arena[s.off:s.off+uint32(s.nsum)]...)
	}
	st.Unlock()
	return dst, ok
}

// insert records a fully-explored subtree. Collisions overwrite: the
// cache is an accelerator, not a ledger. The summary goes into the
// slot's own range when it fits there, otherwise into a new range at
// the end of the stripe's arena.
func (c *stateCache) insert(hash uint64, sleep threadSet, sum []uint64) {
	i := hash & c.mask
	st := &c.stripes[i%cacheStripes]
	st.Lock()
	s := &c.slots[i]
	if s.gen != c.gen || int(s.ncap) < len(sum) {
		s.gen = 0 // dead: a compaction must not keep its old range
		s.off = c.reserve(st, i%cacheStripes, len(sum))
		s.ncap = uint8(len(sum))
	}
	s.hash, s.sleep, s.gen = hash, sleep, c.gen
	s.nsum = uint8(len(sum))
	copy(st.arena[s.off:s.off+uint32(len(sum))], sum)
	st.Unlock()
}

// reserve appends n words to a stripe's arena and returns their
// offset, compacting the arena first when it would outgrow arenaCap.
// The caller holds the stripe's lock.
func (c *stateCache) reserve(st *cacheStripe, stripe uint64, n int) uint32 {
	if len(st.arena)+n > arenaCap {
		c.compact(st, stripe)
	}
	off := len(st.arena)
	if off+n > cap(st.arena) {
		grown := make([]uint64, off, min(max(2*cap(st.arena), off+n, 64), arenaCap))
		copy(grown, st.arena)
		st.arena = grown
	}
	st.arena = st.arena[:off+n]
	return uint32(off)
}

// compact copies the summaries of a stripe's live slots into a fresh
// arena, each range shrunk to the words it holds, and moves every live
// slot to its new range (an empty one too: its offset must not point
// past the new arena's end). The live slots hold at most arenaCap words
// between them (a slot reserves at most subCap), so compaction always
// makes room for one more summary: insert marks the slot it is
// overwriting dead first. A stripe compacts only once its arena is
// full, so the fresh allocation is rare. The caller holds the stripe's
// lock.
func (c *stateCache) compact(st *cacheStripe, stripe uint64) {
	old := st.arena
	st.arena = make([]uint64, 0, arenaCap)
	for i := stripe; i < stateCacheSize; i += cacheStripes {
		if s := &c.slots[i]; s.gen == c.gen {
			off := uint32(len(st.arena))
			st.arena = append(st.arena, old[s.off:s.off+uint32(s.nsum)]...)
			s.off, s.ncap = off, s.nsum
		}
	}
}

// reduction bundles a worker's view of the reduction layer: its event
// hasher, its listener slice (hasher first, then the user's
// listeners) and the search's shared canonical-state cache. nil when
// Options.StateCache is off; DPOR alone needs no per-worker state. The
// hasher is owned by the worker's kit and the cache by the search;
// only this thin bundle (and its listener slice) is rebuilt per
// Explore call.
type reduction struct {
	hasher    *stateHasher
	cache     *stateCache
	listeners []core.Listener
}

// hashState combines the worker's event chains with the decision
// point's visible state — step index, runnable set, each runnable
// thread's pending footprint, and the timing branch — into the node's
// canonical identity. The current thread is deliberately excluded:
// linearizations of the same partial order arrive here with different
// last-executed threads but identical program states, and merging them
// is the point. Under a preemption bound the remaining budget (and the
// current thread it depends on) becomes part of the identity, since a
// subtree explored with less budget proves nothing about more; under a
// thread or variable bound the preempted-thread and charged-object
// sets join the identity for the same reason.
func (e *explorer) hashState(c *sched.Choice, n *node) uint64 {
	sh := e.red.hasher
	h := mix(mix(fnvOffset, uint64(c.Step)), sh.timeH)
	for i, ch := range sh.chains {
		h = mix(mix(h, uint64(i)), ch)
	}
	for _, id := range c.Runnable {
		fp := c.FootprintOf(id)
		// The footprint with its object's content hash for the handle
		// (see objSlot.name).
		h = mix(mix(mix(h, uint64(uint32(id))), fp.Packed()>>32), sh.slot(fp.Obj).name)
	}
	if c.CanIdle {
		h = mix(h, 0x1d1e)
	}
	if e.opts.PreemptionBound != nil {
		h = mix(mix(h, uint64(uint32(c.Current))), uint64(n.preBefore))
	}
	if e.opts.ThreadBound != nil {
		h = mix(mix(h, uint64(uint32(c.Current))), uint64(n.preempted))
	}
	if e.opts.VariableBound != nil {
		// vbObjs is sorted by handle, so its order is intern history:
		// sum the content hashes instead.
		var objs uint64
		for _, o := range n.vbObjs {
			objs += sh.slot(o).name
		}
		h = mix(mix(mix(h, uint64(uint32(c.Current))), uint64(len(n.vbObjs))), objs)
	}
	return h
}

// addSub folds one packed footprint into a node's subtree summary.
func (n *node) addSub(fp uint64) {
	if n.subOverflow {
		return
	}
	for _, v := range n.sub {
		if v == fp {
			return
		}
	}
	if len(n.sub) >= subCap {
		n.subOverflow = true
		return
	}
	n.sub = append(n.sub, fp)
}

// foldChild merges a popped child's summary (plus the executed edge's
// own footprint) into this node's summary.
func (n *node) foldChild(edge uint64, child *node) {
	n.addSub(edge)
	if child.subOverflow {
		n.subOverflow = true
		return
	}
	for _, v := range child.sub {
		n.addSub(v)
	}
}

// addBacktrack requests that thread p be explored at node n: p itself
// when it is an option there, otherwise (p was not enabled) every
// option — Flanagan & Godefroid's conservative fallback. It reports
// how many fresh additions were made.
func (n *node) addBacktrack(p core.ThreadID) int {
	for i, o := range n.options {
		if o == p {
			if !n.todo[i] {
				n.todo[i] = true
				return 1
			}
			return 0
		}
	}
	added := 0
	for i := range n.todo {
		if !n.todo[i] {
			n.todo[i] = true
			added++
		}
	}
	return added
}

// dporAnalyze implements the lazy backtrack-set construction for a
// fresh node: for every pending operation at this decision point, find
// the deepest earlier node whose chosen operation (by another thread)
// does not commute with it, and request the pending thread there. The
// search stops at the shard root: races against the donated prefix are
// covered by the donor, which fully expands its path nodes before
// every donation (see split). The last-dependent index answers each
// lookup in O(threads) (see depIndex).
func (e *explorer) dporAnalyze(n *node, pd int) {
	e.dep.extend(e.path, pd)
	for oi, p := range n.options {
		if p == sched.IdleID {
			continue
		}
		if i := e.dep.deepest(n.fps[oi], p); i >= 0 {
			e.stats.Backtracks += e.path[i].addBacktrack(p)
		}
	}
}

// endAnalyze is dporAnalyze for the decision point a run ends at with
// threads still runnable — after an assertion failure or at the step
// limit. No node is created there, so without it the operations those
// threads left pending would never be checked against the path. A
// thread that has not run yet counts as universal here: mid-run its
// footprint is local, because its first real operation shows up as its
// pending operation at a later node, but a run that ends first never
// shows it. Under the state cache the same footprints join the deepest
// node's summary, so a cache hit on an equivalent state replays them.
func (e *explorer) endAnalyze(c *sched.Choice) {
	pd := len(e.path)
	e.dep.extend(e.path, pd)
	var last *node
	if e.red != nil && pd > 0 {
		last = e.path[pd-1]
	}
	for _, p := range c.Runnable {
		fp := c.FootprintOf(p)
		if fp.Op == core.OpInvalid {
			fp = core.Footprint{}
		}
		if i := e.dep.deepest(fp, p); i >= 0 {
			e.stats.Backtracks += e.path[i].addBacktrack(p)
		}
		if last != nil {
			last.addSub(fp.Packed())
		}
	}
}

// notePick folds timing-relevant decisions into the state hash: idle
// (time-warp) decisions and sleep executions, keyed by the step they
// happen at (see stateHasher.timeH). Called for every decision of
// every run — replayed and fresh alike, so the fold sequence is a
// pure function of the decision prefix. No-op without the state cache
// and for ordinary picks.
func (e *explorer) notePick(c *sched.Choice, pick core.ThreadID) {
	if e.red == nil {
		return
	}
	sh := e.red.hasher
	if pick == sched.IdleID {
		sh.timeH = mix(mix(sh.timeH, 0x1d1e0), uint64(c.Step))
	} else if c.FootprintOf(pick).Op == core.OpSleep {
		sh.timeH = mix(mix(sh.timeH, 0x51ee9), uint64(c.Step))
	}
}

// applySummary replays a cached subtree's footprint summary against
// the current path: each summarized operation behaves like a pending
// operation observed at the cut point, except the executing thread is
// unknown, so no thread is excluded from the lookup and the
// conservative all-options addition is used at the deepest dependent
// node.
func (e *explorer) applySummary(sum []uint64, pd int) {
	e.dep.extend(e.path, pd)
	for _, packed := range sum {
		i := e.dep.deepest(core.UnpackFootprint(packed), core.NoThread)
		if i < 0 {
			continue
		}
		ni := e.path[i]
		ch := ni.chosen()
		added := 0
		for k, o := range ni.options {
			if o != ch && !ni.todo[k] {
				ni.todo[k] = true
				added++
			}
		}
		e.stats.Backtracks += added
	}
}
