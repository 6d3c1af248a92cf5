// Package noise implements noise makers (§2.2 of the paper): heuristics
// that perturb scheduling at instrumentation points "to force different
// legal interleavings for each execution of the test". One Heuristic
// interface serves both runtimes:
//
//   - in the controlled runtime, a noise decision forces the strategy
//     to switch threads at the scheduling point (Strategy wraps any
//     base sched.Strategy);
//   - in the native runtime, a noise decision injects a real delay
//     (sleep, yield, or spin) before the operation, ConTest-style.
//
// The two research questions §2.2 poses — which heuristic uncovers more
// bugs, and where noise should be injected — map to the Heuristic
// implementations below and to the instrument.Plan that gates which
// probes call them.
package noise

import (
	"math/rand"
	"sync"
	"time"

	"mtbench/internal/core"
)

// Decision is a heuristic's verdict at one instrumentation point.
type Decision struct {
	// Switch asks the controlled scheduler to run a different thread.
	Switch bool
	// Sleep asks the native runtime to sleep before the operation.
	Sleep time.Duration
	// Yield asks the native runtime to call runtime.Gosched.
	Yield bool
	// Spin asks the native runtime to busy-loop for roughly this many
	// iterations (cheap sub-microsecond noise).
	Spin int
}

// Noisy reports whether the decision perturbs the schedule at all.
func (d Decision) Noisy() bool {
	return d.Switch || d.Sleep > 0 || d.Yield || d.Spin > 0
}

// Point describes the instrumentation point a heuristic decides at: the
// operation the thread is about to perform.
type Point struct {
	Thread core.ThreadID
	Op     core.Op
	Name   string // object name ("" when none)
	Loc    core.Location
}

// Heuristic decides, at every enabled instrumentation point, whether
// and how to perturb the schedule. Implementations must be safe for
// concurrent use (the native runtime calls Decide from many
// goroutines); the rng is owned by the calling thread. A heuristic
// that never reads Point.Loc should implement core.LocationIndifferent
// with NeedsLocations() false, so controlled runs skip the per-operation
// call-site lookup that fills it in.
type Heuristic interface {
	Name() string
	Decide(p *Point, rng *rand.Rand) Decision
}

// None returns the no-noise heuristic: the baseline for every
// noise-maker comparison.
func None() Heuristic { return noneH{} }

type noneH struct{}

func (noneH) Name() string                       { return "none" }
func (noneH) Decide(*Point, *rand.Rand) Decision { return Decision{} }

// NeedsLocations implements core.LocationIndifferent.
func (noneH) NeedsLocations() bool { return false }

// Kind selects the perturbation a probabilistic heuristic applies in
// native mode (controlled mode always translates to a forced switch).
type Kind uint8

// Perturbation kinds.
const (
	KindYield Kind = iota // runtime.Gosched
	KindSleep             // time.Sleep up to MaxSleep
	KindMixed             // coin-flip between yield and sleep
)

// Bernoulli perturbs at every enabled point with fixed probability P —
// the simplest heuristic in the ConTest family ("decides, randomly
// ... if some kind of delay is needed").
type Bernoulli struct {
	P        float64
	Kind     Kind
	MaxSleep time.Duration // 0 = 1ms
	// OnlyOps restricts noise to the listed operation kinds (nil = all
	// points). Restricting to sync ops or accesses is the cheap answer
	// to the paper's "where should calls be embedded" question.
	OnlyOps []core.Op
	label   string
}

// NewBernoulli returns a Bernoulli heuristic with a descriptive name.
func NewBernoulli(p float64, kind Kind, only ...core.Op) *Bernoulli {
	return &Bernoulli{P: p, Kind: kind, OnlyOps: only}
}

// Name implements Heuristic.
func (b *Bernoulli) Name() string {
	if b.label != "" {
		return b.label
	}
	switch {
	case len(b.OnlyOps) > 0:
		return "bernoulli-filtered"
	case b.Kind == KindSleep:
		return "bernoulli-sleep"
	case b.Kind == KindMixed:
		return "bernoulli-mixed"
	default:
		return "bernoulli-yield"
	}
}

// WithName overrides the reported name (used by experiments comparing
// several configurations of one heuristic).
func (b *Bernoulli) WithName(name string) *Bernoulli {
	b.label = name
	return b
}

func (b *Bernoulli) applies(op core.Op) bool {
	if len(b.OnlyOps) == 0 {
		return true
	}
	for _, o := range b.OnlyOps {
		if o == op {
			return true
		}
	}
	return false
}

// NeedsLocations implements core.LocationIndifferent: Bernoulli keys
// on the operation kind alone, never on Point.Loc.
func (b *Bernoulli) NeedsLocations() bool { return false }

// Decide implements Heuristic.
func (b *Bernoulli) Decide(p *Point, rng *rand.Rand) Decision {
	if !b.applies(p.Op) || rng.Float64() >= b.P {
		return Decision{}
	}
	return b.perturb(rng)
}

func (b *Bernoulli) perturb(rng *rand.Rand) Decision {
	max := b.MaxSleep
	if max <= 0 {
		max = time.Millisecond
	}
	switch b.Kind {
	case KindSleep:
		return Decision{Switch: true, Sleep: time.Duration(rng.Int63n(int64(max)) + 1)}
	case KindMixed:
		if rng.Intn(2) == 0 {
			return Decision{Switch: true, Yield: true}
		}
		return Decision{Switch: true, Sleep: time.Duration(rng.Int63n(int64(max)) + 1)}
	default:
		return Decision{Switch: true, Yield: true}
	}
}

// SharedVarNoise perturbs only at shared-variable accesses: the
// placement heuristic that targets the operations races are made of.
func SharedVarNoise(p float64) Heuristic {
	return NewBernoulli(p, KindYield, core.OpRead, core.OpWrite).WithName("sharedvar")
}

// SyncNoise perturbs only at synchronization operations: the placement
// heuristic that targets lock-discipline and notify bugs.
func SyncNoise(p float64) Heuristic {
	return NewBernoulli(p, KindYield,
		core.OpLock, core.OpUnlock, core.OpWait, core.OpSignal, core.OpBroadcast).WithName("sync")
}

// Statistical adapts to the program: locations that have produced few
// perturbations so far get perturbed with higher probability, spreading
// noise across the program instead of hammering hot loops (the
// "based on specific statistics" heuristic of §2.2). State accumulates
// across runs of a campaign, which is the point: later runs perturb
// what earlier runs neglected.
type Statistical struct {
	// Base is the probability for a never-seen location (default 0.5).
	Base float64
	// Decay divides the probability per prior perturbation at the same
	// location (default 0.5 halves it each time).
	Decay float64

	mu     sync.Mutex
	counts map[string]int
}

// NewStatistical returns an adaptive per-location heuristic.
func NewStatistical(base, decay float64) *Statistical {
	if base <= 0 {
		base = 0.5
	}
	if decay <= 0 || decay >= 1 {
		decay = 0.5
	}
	return &Statistical{Base: base, Decay: decay, counts: make(map[string]int)}
}

// Name implements Heuristic.
func (s *Statistical) Name() string { return "statistical" }

// Decide implements Heuristic.
func (s *Statistical) Decide(p *Point, rng *rand.Rand) Decision {
	key := p.Loc.Key()
	s.mu.Lock()
	n := s.counts[key]
	prob := s.Base
	for i := 0; i < n && prob > 1e-4; i++ {
		prob *= s.Decay
	}
	hit := rng.Float64() < prob
	if hit {
		s.counts[key] = n + 1
	}
	s.mu.Unlock()
	if !hit {
		return Decision{}
	}
	return Decision{Switch: true, Yield: true}
}

// CoverageDirected perturbs at points whose (object, location) pair has
// been exercised the fewest times — the §2.2 heuristic that decides
// "based on ... coverage". It is the Statistical idea keyed by the
// coverage task (variable × program point) rather than the bare
// location.
type CoverageDirected struct {
	// Base probability for an uncovered task (default 0.8).
	Base float64

	mu     sync.Mutex
	counts map[string]int
}

// NewCoverageDirected returns a coverage-directed heuristic.
func NewCoverageDirected(base float64) *CoverageDirected {
	if base <= 0 {
		base = 0.8
	}
	return &CoverageDirected{Base: base, counts: make(map[string]int)}
}

// Name implements Heuristic.
func (c *CoverageDirected) Name() string { return "covdirected" }

// Decide implements Heuristic.
func (c *CoverageDirected) Decide(p *Point, rng *rand.Rand) Decision {
	if !p.Op.IsAccess() && !p.Op.IsSync() {
		return Decision{}
	}
	key := p.Name + "@" + p.Loc.Key()
	c.mu.Lock()
	n := c.counts[key]
	c.counts[key] = n + 1
	c.mu.Unlock()
	prob := c.Base / float64(1+n)
	if rng.Float64() >= prob {
		return Decision{}
	}
	return Decision{Switch: true, Yield: true}
}
