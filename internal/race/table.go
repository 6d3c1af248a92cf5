package race

import (
	"slices"

	"mtbench/internal/core"
)

// The detectors keep their per-run state in tables that are reset in
// place at every run start rather than rebuilt: the controlled runtime
// numbers threads from 0 and objects from 1 again every run, so a
// slice indexed by id covers a run, and its records keep their storage
// for the next. An event stream may also come from a trace file, whose
// ids can be anything; ids outside the dense bounds go through a map,
// so no id sizes a table or a vector clock.
const (
	// denseThreads bounds the thread ids that are their own slot.
	denseThreads = 1 << 10
	// denseObjects bounds the ids a table indexes directly.
	denseObjects = 1 << 16
)

// threadSlots numbers one run's threads for vector clocks and
// per-thread tables: a thread id in [0, denseThreads) is its own slot,
// any other id (a negative one included) takes the next slot from
// denseThreads on.
type threadSlots struct {
	far map[core.ThreadID]int
	ids []core.ThreadID // ids[k] is the thread of slot denseThreads+k
}

func (s *threadSlots) slot(t core.ThreadID) int {
	if uint32(t) < denseThreads {
		return int(t)
	}
	k, ok := s.far[t]
	if !ok {
		if s.far == nil {
			s.far = map[core.ThreadID]int{}
		}
		k = denseThreads + len(s.ids)
		s.far[t] = k
		s.ids = append(s.ids, t)
	}
	return k
}

// id is slot's thread.
func (s *threadSlots) id(slot int) core.ThreadID {
	if slot < denseThreads {
		return core.ThreadID(slot)
	}
	return s.ids[slot-denseThreads]
}

func (s *threadSlots) reset() {
	clear(s.far)
	s.ids = s.ids[:0]
}

// table maps one run's ids to records that outlive the run: a record
// is allocated the first time its id is seen and reset in place at
// every run start, so a steady-state run allocates nothing. A reset
// record must read as a fresh one.
type table[R any, P interface {
	*R
	Reset()
}] struct {
	dense []P // dense[id] for ids in [0, denseObjects); nil = never used
	hwm   int // dense[:hwm] may hold state of the current run
	far   map[int64]P
}

func (t *table[R, P]) get(id int64) P {
	if uint64(id) >= denseObjects {
		r := t.far[id]
		if r == nil {
			if t.far == nil {
				t.far = map[int64]P{}
			}
			r = new(R)
			t.far[id] = r
		}
		return r
	}
	if int(id) >= len(t.dense) {
		t.dense = append(t.dense, make([]P, int(id)+1-len(t.dense))...)
	}
	r := t.dense[id]
	if r == nil {
		r = new(R)
		t.dense[id] = r
	}
	t.hwm = max(t.hwm, int(id)+1)
	return r
}

// reset readies the table for a new run. Records of far ids are
// dropped rather than kept: such ids do not recur run after run.
func (t *table[R, P]) reset() {
	for _, r := range t.dense[:t.hwm] {
		if r != nil {
			r.Reset()
		}
	}
	t.hwm = 0
	clear(t.far)
}

// setAt stores v at s[i], growing s with zero values (into spare
// capacity first) when i is past its end.
func setAt[T any](s []T, i int, v T) []T {
	if n := len(s); i >= n {
		s = slices.Grow(s, i+1-n)[:i+1]
		clear(s[n:])
	}
	s[i] = v
	return s
}
