package core

import (
	"fmt"
	"strings"
)

// ThreadID identifies a virtual thread within a single run. Thread 0 is
// always the main thread (the program body); children are numbered in
// spawn order, which both runtimes keep deterministic.
type ThreadID int32

// NoThread is the ThreadID used when no thread applies.
const NoThread ThreadID = -1

// ObjectID identifies a synchronization object or shared variable
// within a single run. IDs are assigned in creation order, so they are
// stable across replays of the same program.
type ObjectID int64

// NoObject is the ObjectID used for events that concern no object
// (yield, sleep, fork, join, end).
const NoObject ObjectID = 0

// Location is a source position of an instrumented operation: the
// program point the paper requires every trace record to carry.
type Location struct {
	File string
	Line int
	Fn   string
}

// String formats the location as "file:line (fn)". The zero Location
// formats as "?".
func (l Location) String() string {
	if l.File == "" {
		return "?"
	}
	if l.Fn == "" {
		return fmt.Sprintf("%s:%d", l.File, l.Line)
	}
	return fmt.Sprintf("%s:%d (%s)", l.File, l.Line, l.Fn)
}

// Key returns a compact "file:line" form used as a map key by coverage
// models and noise statistics.
func (l Location) Key() string {
	return fmt.Sprintf("%s:%d", l.File, l.Line)
}

// Event is one instrumented operation. It is the single interchange
// format of the framework: runtimes produce events, every tool consumes
// them, and the trace package serializes them. The fields correspond to
// the record contents the paper prescribes: "the location in the
// program from which it was called, what was instrumented, which
// variable was touched, thread name, if it is a read or write".
type Event struct {
	Seq    int64    // global sequence number within the run (total order)
	Thread ThreadID // acting thread
	Op     Op       // operation kind
	Obj    ObjectID // object acted on (NoObject if none)
	Name   string   // symbolic object name, or message for OpFail/OpOutcome
	Value  int64    // value read/written, child/join target, sleep ns
	Flags  Flags    // modifiers (e.g. atomic access)
	Loc    Location // program point of the operation

	// NameID and LocID are the interned handles for Name and Loc.Key()
	// (see intern.go): hot-path consumers key their maps on them
	// instead of hashing strings. 0 means "not interned" — producers
	// are not required to fill them (the native runtime does not), and
	// consumers that need a handle intern on demand. They are runtime
	// acceleration only and are never serialized.
	NameID uint32
	LocID  uint32
}

// Flags carries event modifiers.
type Flags uint8

// Event flag bits.
const (
	// FlagAtomic marks a variable access with release/acquire ordering
	// (a Java-volatile-style variable). Happens-before race detectors
	// treat such accesses as synchronization; lockset detectors that
	// ignore the flag produce the false alarms discussed in §2.2 of the
	// paper.
	FlagAtomic Flags = 1 << iota
)

// Atomic reports whether FlagAtomic is set.
func (f Flags) Atomic() bool { return f&FlagAtomic != 0 }

// String renders the event in the one-line form used by logs and the
// textual trace dump.
func (e *Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d t%d %s", e.Seq, e.Thread, e.Op)
	if e.Name != "" {
		fmt.Fprintf(&b, " %s", e.Name)
	}
	switch e.Op {
	case OpRead, OpWrite, OpFork, OpJoin, OpSleep:
		fmt.Fprintf(&b, " val=%d", e.Value)
	}
	if e.Loc.File != "" {
		fmt.Fprintf(&b, " @ %s", e.Loc.Key())
	}
	return b.String()
}

// trimPath shortens an absolute file path to its last two path
// elements, which keeps traces portable across checkouts.
func trimPath(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i < 0 {
		return p
	}
	j := strings.LastIndexByte(p[:i], '/')
	if j < 0 {
		return p
	}
	return p[j+1:]
}

// trimFn strips the package path prefix from a fully qualified function
// name, keeping "pkg.Func".
func trimFn(fn string) string {
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		fn = fn[i+1:]
	}
	return fn
}
