package core

// Footprint is the reduction layer's view of one pending operation:
// what kind of operation it is and which object it touches, named by
// the interned handle the hot paths already carry (Event.NameID /
// PendingOp.NameID). Two footprints commute when executing them in
// either order from the same state reaches the same state — the
// independence relation dynamic partial-order reduction, sleep sets
// and schedule canonicalization all share.
//
// The relation is deliberately conservative: it may declare dependent
// operations that actually commute (costing pruning, never soundness),
// and it must never declare independent a pair whose order can be
// observed. Obj == 0 means "no interned name": all unnamed objects
// alias one another and are therefore treated as the same object,
// which is the conservative direction.
type Footprint struct {
	Op  Op
	Obj uint32
}

// Commutes reports whether the two operations are independent: they
// can be swapped at adjacent schedule positions without changing the
// resulting state or either thread's behaviour.
//
//   - Invalid footprints (a thread that has not yet published a pending
//     operation) are dependent with everything.
//   - Fork and Join are dependent with everything: forking changes the
//     thread population (and thread-id assignment), joining observes a
//     thread's completion.
//   - Select is dependent with everything: its footprint names at most
//     one of the several channels it may touch, so no per-object
//     independence claim about it is sound.
//   - Yield and Sleep touch no shared object and commute with
//     everything.
//   - Operations on different objects commute — including sends and
//     receives on different channels and waitgroup operations against
//     unrelated objects.
//   - On the same object, only two reads commute; every
//     synchronization operation (lock, unlock, wait, signal, send,
//     recv, close, wgadd, wgwait, ...) conflicts with every other
//     operation on its object.
func (a Footprint) Commutes(b Footprint) bool {
	if a.Op == OpInvalid || b.Op == OpInvalid {
		return false
	}
	if a.Op == OpFork || a.Op == OpJoin || b.Op == OpFork || b.Op == OpJoin {
		return false
	}
	if a.Op == OpSelect || b.Op == OpSelect {
		return false
	}
	if a.Op == OpYield || a.Op == OpSleep || b.Op == OpYield || b.Op == OpSleep {
		return true
	}
	if a.Obj != b.Obj {
		return true
	}
	return a.Op == OpRead && b.Op == OpRead
}

// DepClass sorts footprints by how Commutes treats them. The relation
// is a function of the two classes and whether the objects match:
//
//   - ClassUniversal (invalid, fork, join, select) is dependent with
//     every footprint;
//   - ClassLocal (yield, sleep) is dependent only with ClassUniversal;
//   - ClassRead and ClassWrite are dependent with ClassUniversal and
//     with same-object footprints of either class, except that two
//     reads commute.
//
// The DFS engine's last-dependent index relies on exactly this table
// (FuzzCommutes pins it against Commutes).
type DepClass uint8

const (
	ClassUniversal DepClass = iota
	ClassLocal
	ClassRead
	ClassWrite
)

// Class returns the footprint's dependence class.
func (a Footprint) Class() DepClass {
	switch a.Op {
	case OpInvalid, OpFork, OpJoin, OpSelect:
		return ClassUniversal
	case OpYield, OpSleep:
		return ClassLocal
	case OpRead:
		return ClassRead
	}
	return ClassWrite
}

// Packed folds the footprint into one comparable word (op in the high
// bits, object handle in the low), the representation the reduction
// layer's summaries and the fuzzer's canonical forms store.
func (a Footprint) Packed() uint64 {
	return uint64(a.Op)<<32 | uint64(a.Obj)
}

// UnpackFootprint is the inverse of Footprint.Packed.
func UnpackFootprint(p uint64) Footprint {
	return Footprint{Op: Op(p >> 32), Obj: uint32(p)}
}

// CommutesPacked is Commutes over packed footprints.
func CommutesPacked(a, b uint64) bool {
	return UnpackFootprint(a).Commutes(UnpackFootprint(b))
}

// HashOffset and FoldHash are the shared word-level FNV-1a fold used
// by every reduction-layer hash (the exploration engine's canonical-
// state chains, the fuzzer's canonical-form keys): one definition, so
// the constants cannot drift between consumers.
const HashOffset uint64 = 14695981039346656037

// FoldHash folds one word into an FNV-1a hash state.
func FoldHash(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}
