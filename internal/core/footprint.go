package core

// Footprint is the reduction layer's view of one pending operation:
// what kind of operation it is and which object it touches, named by
// the interned handle the hot paths already carry (Event.NameID /
// PendingOp.NameID). Two footprints commute when executing them in
// either order from the same state reaches the same state — the
// independence relation dynamic partial-order reduction and sleep sets
// share.
//
// The relation is deliberately conservative: it may declare dependent
// operations that actually commute (costing pruning, never soundness),
// and it must never declare independent a pair whose order can be
// observed. Obj == 0 means "no interned name": all unnamed objects
// alias one another and are therefore treated as the same object,
// which is the conservative direction.
type Footprint struct {
	Op Op
	// Local marks a thread-lifecycle step that touches nothing another
	// thread can observe: a thread that has not run yet (Op is
	// OpInvalid), which executes only its own code up to its first
	// probe, and a join whose child has finished (Op is OpJoin), which
	// reads a final state nothing can change any more. A local
	// footprint is ClassLocal whatever its Op.
	Local bool
	Obj   uint32
}

// Commutes reports whether the two operations are independent: they
// can be swapped at adjacent schedule positions without changing the
// resulting state or either thread's behaviour.
//
//   - Invalid footprints (the idle pseudo-thread, and any operation the
//     runtime does not describe) are dependent with everything.
//   - A join on a child that is still running is dependent with
//     everything: it observes the child's completion.
//   - Select is dependent with everything: its footprint names at most
//     one of the several channels it may touch, so no per-object
//     independence claim about it is sound.
//   - Local footprints (see Footprint.Local), yield and sleep touch no
//     shared object and commute with everything else.
//   - A fork commutes with everything but another fork: forks assign
//     thread ids in execution order, and the child cannot run before
//     its fork, whatever the order of other threads' operations.
//   - Operations on different objects commute — including sends and
//     receives on different channels and waitgroup operations against
//     unrelated objects.
//   - On the same object, only two reads commute; every
//     synchronization operation (lock, unlock, wait, signal, send,
//     recv, close, wgadd, wgwait, ...) conflicts with every other
//     operation on its object.
func (a Footprint) Commutes(b Footprint) bool {
	if a.universal() || b.universal() {
		return false
	}
	if a.local() || b.local() {
		return true
	}
	if a.Op == OpFork || b.Op == OpFork {
		return a.Op != b.Op
	}
	if a.Obj != b.Obj {
		return true
	}
	return a.Op == OpRead && b.Op == OpRead
}

func (a Footprint) universal() bool {
	return !a.Local && (a.Op == OpInvalid || a.Op == OpJoin || a.Op == OpSelect)
}

func (a Footprint) local() bool {
	return a.Local || a.Op == OpYield || a.Op == OpSleep
}

// DepClass sorts footprints by how Commutes treats them. The relation
// is a function of the two classes and whether the objects match:
//
//   - ClassUniversal (invalid, select, a join on a running child) is
//     dependent with every footprint;
//   - ClassLocal (yield, sleep, and the local lifecycle steps: a thread
//     that has not run yet, a join on a finished child) is dependent
//     only with ClassUniversal;
//   - ClassFork (fork) is dependent with ClassUniversal and with
//     ClassFork, whatever the objects;
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
	ClassFork
	ClassRead
	ClassWrite
)

// Class returns the footprint's dependence class.
func (a Footprint) Class() DepClass {
	switch {
	case a.universal():
		return ClassUniversal
	case a.local():
		return ClassLocal
	case a.Op == OpFork:
		return ClassFork
	case a.Op == OpRead:
		return ClassRead
	}
	return ClassWrite
}

// Packed folds the footprint into one comparable word (the Local flag
// above the op, the op above the object handle), the representation
// the reduction layer's summaries store.
func (a Footprint) Packed() uint64 {
	p := uint64(a.Op)<<32 | uint64(a.Obj)
	if a.Local {
		p |= 1 << 40
	}
	return p
}

// UnpackFootprint is the inverse of Footprint.Packed.
func UnpackFootprint(p uint64) Footprint {
	return Footprint{Op: Op(p >> 32 & 0xff), Local: p&(1<<40) != 0, Obj: uint32(p)}
}

// HashOffset and FoldHash are the shared word-level FNV-1a fold used
// by every reduction-layer hash (the exploration engine's canonical-
// state chains, the scheduler's position digests): one definition, so
// the constants cannot drift between consumers.
const HashOffset uint64 = 14695981039346656037

// FoldHash folds one word into an FNV-1a hash state.
func FoldHash(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}
