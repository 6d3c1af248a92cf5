// Package vclock implements vector clocks over dense thread ids. They
// are the happens-before machinery used by the DJIT+-style race
// detector and by offline trace analysis.
package vclock

import (
	"fmt"
	"slices"
	"strings"

	"mtbench/internal/core"
)

// VC is a vector clock: VC[t] is the number of "ticks" of thread t that
// happen-before the point the clock describes. The zero value is a
// usable empty clock (all components zero).
type VC struct {
	c []int64
}

// New returns an empty clock with capacity for n threads.
func New(n int) VC {
	return VC{c: make([]int64, n)}
}

// Get returns component t (zero if the clock has never seen t).
func (v VC) Get(t core.ThreadID) int64 {
	if int(t) < 0 || int(t) >= len(v.c) {
		return 0
	}
	return v.c[t]
}

// grow ensures the clock has a component for thread t, reusing spare
// capacity (see Reset) before allocating.
func (v *VC) grow(t core.ThreadID) {
	n := len(v.c)
	if int(t) < n {
		return
	}
	v.c = slices.Grow(v.c, int(t)+1-n)[:int(t)+1]
	clear(v.c[n:])
}

// Reset empties the clock (every component reads zero again) and keeps
// its storage, so a detector reusing the clock for its next run
// allocates nothing.
func (v *VC) Reset() { v.c = v.c[:0] }

// Set assigns component t.
func (v *VC) Set(t core.ThreadID, val int64) {
	v.grow(t)
	v.c[t] = val
}

// Tick increments component t and returns the new value.
func (v *VC) Tick(t core.ThreadID) int64 {
	v.grow(t)
	v.c[t]++
	return v.c[t]
}

// Join sets v to the componentwise maximum of v and o (the
// happens-before merge performed at acquire/join edges).
func (v *VC) Join(o VC) {
	if len(o.c) > len(v.c) {
		v.grow(core.ThreadID(len(o.c) - 1))
	}
	for i, ov := range o.c {
		if ov > v.c[i] {
			v.c[i] = ov
		}
	}
}

// Copy returns an independent copy of v.
func (v VC) Copy() VC {
	nc := make([]int64, len(v.c))
	copy(nc, v.c)
	return VC{c: nc}
}

// LEQ reports whether v happens-before-or-equals o, i.e. every
// component of v is <= the corresponding component of o.
func (v VC) LEQ(o VC) bool {
	for i, vv := range v.c {
		if vv == 0 {
			continue
		}
		var ov int64
		if i < len(o.c) {
			ov = o.c[i]
		}
		if vv > ov {
			return false
		}
	}
	return true
}

// Concurrent reports whether neither clock happens-before the other.
func (v VC) Concurrent(o VC) bool {
	return !v.LEQ(o) && !o.LEQ(v)
}

// Len returns the number of components tracked.
func (v VC) Len() int { return len(v.c) }

// String renders the clock as "<c0,c1,...>".
func (v VC) String() string {
	parts := make([]string, len(v.c))
	for i, c := range v.c {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return "<" + strings.Join(parts, ",") + ">"
}

// Epoch is a scalar (thread, clock) pair: the lightweight
// FastTrack-style representation for the common case of a variable's
// accesses being totally ordered.
type Epoch struct {
	T core.ThreadID
	C int64
}

// Zero reports whether the epoch is unset.
func (e Epoch) Zero() bool { return e.C == 0 }

// HB reports whether the epoch happens-before the clock o.
func (e Epoch) HB(o VC) bool { return e.C <= o.Get(e.T) }

// String renders the epoch as "c@t".
func (e Epoch) String() string { return fmt.Sprintf("%d@t%d", e.C, e.T) }
