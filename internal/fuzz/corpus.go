package fuzz

import (
	"math/rand"
	"slices"

	"mtbench/internal/core"
)

// entry is one retained schedule: interesting because it contributed
// new coverage tasks (gain > 0) or exposed a distinct bug.
type entry struct {
	// schedule is the decision log actually executed (post-repair), so
	// every corpus entry is feasible as recorded.
	schedule []core.ThreadID
	// hot are the step indices where a runnable thread pended an
	// operation on a then-known contended variable; the variable-bias
	// mutator prefers them.
	hot []int
	// gain is the number of new coverage tasks the entry contributed
	// when admitted; it is the entry's selection weight (+1).
	gain int
	// bug marks entries that exposed a distinct bug (admitted even
	// without coverage gain: buggy prefixes splice well).
	bug bool
}

// corpus is the weighted pool of interesting schedules. Not
// self-locking: the coordinator serializes access.
type corpus struct {
	entries []*entry
	max     int
	weight  int // cached sum of (gain+1) over entries
}

func newCorpus(max int) *corpus { return &corpus{max: max} }

// add admits an entry, evicting the lowest-gain (oldest on ties)
// non-baseline entry when full. The first entry — the nonpreemptive
// seed — is never evicted, so mutation always has the natural schedule
// to restart from.
func (c *corpus) add(e *entry) {
	c.entries = append(c.entries, e)
	c.weight += e.gain + 1
	if len(c.entries) <= c.max {
		return
	}
	lo := 1
	for i := 2; i < len(c.entries); i++ {
		if c.entries[i].gain < c.entries[lo].gain {
			lo = i
		}
	}
	c.weight -= c.entries[lo].gain + 1
	c.entries = slices.Delete(c.entries, lo, lo+1)
}

// pick selects a mutation base, weighted by coverage gain so schedules
// that opened more of the program get proportionally more of the
// budget (the greybox "energy" schedule, kept deliberately simple and
// deterministic).
func (c *corpus) pick(rng *rand.Rand) *entry {
	if len(c.entries) == 0 {
		return nil
	}
	r := rng.Intn(c.weight)
	for _, e := range c.entries {
		r -= e.gain + 1
		if r < 0 {
			return e
		}
	}
	return c.entries[len(c.entries)-1]
}
