package fuzz

import (
	"math/rand"
	"slices"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

// lazySeedSource wraps the stock math/rand source with deferred
// seeding: Seed just records the seed, and the expensive legacy
// reseed (the generator regenerates its whole 607-word state) runs on
// the first draw — so candidates that execute without ever consulting
// the rng (no repairs, no random tail) pay nothing. The draw stream is
// exactly the one rand.New(rand.NewSource(seed)) would produce.
type lazySeedSource struct {
	src    rand.Source64
	seed   int64
	seeded bool
}

func newLazySeedSource() *lazySeedSource {
	return &lazySeedSource{src: rand.NewSource(0).(rand.Source64), seeded: true}
}

// Seed implements rand.Source, deferring the underlying reseed.
func (l *lazySeedSource) Seed(seed int64) { l.seed, l.seeded = seed, false }

func (l *lazySeedSource) force() {
	if !l.seeded {
		l.src.Seed(l.seed)
		l.seeded = true
	}
}

// Int63 implements rand.Source.
func (l *lazySeedSource) Int63() int64 {
	l.force()
	return l.src.Int63()
}

// Uint64 implements rand.Source64 (rand.Rand draws through it when
// available, so the wrapper must forward it to keep streams
// identical).
func (l *lazySeedSource) Uint64() uint64 {
	l.force()
	return l.src.Uint64()
}

// guided is the candidate-execution strategy: it follows a mutated
// decision log for as long as the log is feasible, repairs infeasible
// decisions with a seeded random pick instead of declaring divergence
// (a mutated schedule is a search hint, not a replay contract), and
// extends past the end of the log with a random walk so short mutants
// still complete their run.
//
// While driving, it also records which executed steps had a runnable
// thread pending an operation on a known-contended variable — the
// "hot" positions the variable-bias mutator later prefers to mutate
// (thread-aware greybox fuzzing's coverage priming).
type guided struct {
	decisions []core.ThreadID
	rng       *rand.Rand
	// targets is the snapshot of contended variables at candidate
	// construction time, keyed by interned name handle (nil disables
	// hot tracking).
	targets map[uint32]bool

	pos     int
	repairs int64
	hot     []int
}

// Name implements sched.Strategy.
func (g *guided) Name() string { return "fuzz-guided" }

// Pick implements sched.Strategy.
func (g *guided) Pick(c *sched.Choice) core.ThreadID {
	if g.targets != nil && c.PendingOf != nil {
		for _, id := range c.Runnable {
			if g.targets[c.PendingOf(id).NameID] {
				g.hot = append(g.hot, int(c.Step))
				break
			}
		}
	}
	if g.pos < len(g.decisions) {
		want := g.decisions[g.pos]
		g.pos++
		if want == sched.IdleID {
			if c.CanIdle {
				return sched.IdleID
			}
		} else if slices.Contains(c.Runnable, want) {
			return want
		}
		g.repairs++
	}
	return c.Runnable[g.rng.Intn(len(c.Runnable))]
}
