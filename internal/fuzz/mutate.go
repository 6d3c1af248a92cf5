package fuzz

import (
	"math/rand"
	"slices"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

// A mutator derives a candidate decision log from a corpus base (and,
// for splicing, a donor). Mutants need not be feasible: the guided
// strategy repairs infeasible decisions at execution time, so every
// operator is free to be syntactic.
type mutator struct {
	name string
	fn   func(rng *rand.Rand, base, donor *entry, opts *Options) []core.ThreadID
}

// mutators is the operator table, in fixed order so weighted selection
// is deterministic under a fixed seed.
//
//   - flip:    change one decision to another participating thread —
//     the minimal interleaving change.
//   - varbias: flip, but at a hot position (a step where some runnable
//     thread pended on a contended variable) — the thread-aware bias
//     after MUZZ.
//   - insert:  force an extra preemption by inserting a switch to a
//     different thread.
//   - drop:    remove a context switch, merging two execution bursts.
//   - splice:  crossover — a prefix of one interesting schedule joined
//     to a suffix of another.
//   - pbound:  canonicalize to at most P context switches (Options.
//     PreemptionBound, or a drawn 0..2), per Bindal/Bansal/Lal's
//     bounded mutations: most bugs need very few preemptions.
//   - trunc:   keep a prefix and let the guided random tail re-explore
//     from there.
var mutators = []mutator{
	{"flip", mutFlip},
	{"varbias", mutVarBias},
	{"insert", mutInsert},
	{"drop", mutDrop},
	{"splice", mutSplice},
	{"pbound", mutPBound},
	{"trunc", mutTrunc},
}

// threadsOf returns the distinct real thread ids appearing in s, in
// first-appearance order.
func threadsOf(s []core.ThreadID) []core.ThreadID {
	var ids []core.ThreadID
	for _, id := range s {
		if id != sched.IdleID && !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// otherThread picks a participating thread different from cur (falling
// back to cur+1, which the guided repair resolves if infeasible).
func otherThread(rng *rand.Rand, ids []core.ThreadID, cur core.ThreadID) core.ThreadID {
	var cands []core.ThreadID
	for _, id := range ids {
		if id != cur {
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 {
		return cur + 1
	}
	return cands[rng.Intn(len(cands))]
}

func flipAt(rng *rand.Rand, s []core.ThreadID, i int) []core.ThreadID {
	out := slices.Clone(s)
	out[i] = otherThread(rng, threadsOf(s), s[i])
	return out
}

func mutFlip(rng *rand.Rand, base, _ *entry, _ *Options) []core.ThreadID {
	if len(base.schedule) == 0 {
		return nil
	}
	return flipAt(rng, base.schedule, rng.Intn(len(base.schedule)))
}

func mutVarBias(rng *rand.Rand, base, donor *entry, opts *Options) []core.ThreadID {
	var hot []int
	for _, i := range base.hot {
		if i < len(base.schedule) {
			hot = append(hot, i)
		}
	}
	if len(hot) == 0 {
		return mutFlip(rng, base, donor, opts)
	}
	return flipAt(rng, base.schedule, hot[rng.Intn(len(hot))])
}

func mutInsert(rng *rand.Rand, base, _ *entry, _ *Options) []core.ThreadID {
	s := base.schedule
	i := rng.Intn(len(s) + 1)
	var cur core.ThreadID = -1
	if i > 0 {
		cur = s[i-1]
	}
	out := make([]core.ThreadID, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, otherThread(rng, threadsOf(s), cur))
	out = append(out, s[i:]...)
	return out
}

func mutDrop(rng *rand.Rand, base, _ *entry, _ *Options) []core.ThreadID {
	s := base.schedule
	if len(s) == 0 {
		return nil
	}
	// Prefer deleting a decision that switched threads; fall back to a
	// uniform position.
	var switches []int
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			switches = append(switches, i)
		}
	}
	i := rng.Intn(len(s))
	if len(switches) > 0 {
		i = switches[rng.Intn(len(switches))]
	}
	return slices.Delete(slices.Clone(s), i, i+1)
}

func mutSplice(rng *rand.Rand, base, donor *entry, _ *Options) []core.ThreadID {
	a, b := base.schedule, donor.schedule
	i := rng.Intn(len(a) + 1)
	j := rng.Intn(len(b) + 1)
	out := make([]core.ThreadID, 0, i+len(b)-j)
	out = append(out, a[:i]...)
	return append(out, b[j:]...)
}

func mutPBound(rng *rand.Rand, base, _ *entry, opts *Options) []core.ThreadID {
	bound := rng.Intn(3)
	if opts.PreemptionBound != nil {
		bound = *opts.PreemptionBound
	}
	out := slices.Clone(base.schedule)
	switches := 0
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			continue
		}
		switches++
		if switches > bound {
			// Over budget: keep the previous thread running; the guided
			// repair takes over when it blocks or finishes.
			out[i] = out[i-1]
		}
	}
	return out
}

func mutTrunc(rng *rand.Rand, base, _ *entry, _ *Options) []core.ThreadID {
	s := base.schedule
	return slices.Clone(s[:rng.Intn(len(s)+1)])
}
