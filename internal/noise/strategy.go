package noise

import (
	"math/rand"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

// Strategy wraps a base scheduling strategy with a noise heuristic for
// the controlled runtime: at each scheduling point the heuristic
// inspects the pending operation, and a Noisy decision forces a switch
// to a different runnable thread (chosen uniformly). Otherwise the base
// strategy decides.
//
// This is the controlled-mode analogue of injecting sleeps into a
// preemptive runtime: a forced switch "simulates the behaviour of other
// possible schedulers" exactly as §2.2 describes.
type Strategy struct {
	Base sched.Strategy
	H    Heuristic
	rng  *rand.Rand
	// point is the Point Pick hands the heuristic, kept here so that
	// passing its address allocates nothing.
	point Point

	// decisions/perturbations count heuristic activity for overhead
	// reporting.
	decisions     int64
	perturbations int64
}

// NewStrategy builds a noise-wrapped strategy. A nil base defaults to
// run-to-block with random dispatch (sched.RandomWhenBlocked), the
// model of the nondeterministic OS scheduler noise tools run over in
// the field: the heuristic adds preemptions at instrumentation points,
// the base decides who runs after a block. Pass sched.Nonpreemptive()
// explicitly to isolate the heuristic's contribution over a fully
// deterministic dispatcher.
func NewStrategy(base sched.Strategy, h Heuristic, seed int64) *Strategy {
	if base == nil {
		return NewFactory(h)(seed).(*Strategy)
	}
	if h == nil {
		h = None()
	}
	return &Strategy{Base: base, H: h, rng: core.NewRand(seed)}
}

// NewFactory returns a source of noise strategies for heuristic h over
// the default random-dispatch base: a call with seed s yields the
// strategy NewStrategy(nil, h, s) would. It builds one strategy on its
// first call and reseeds it (and its base) on every later call, so the
// strategy returned is valid until the next call. h is shared by every
// run, so an adaptive heuristic learns across them.
func NewFactory(h Heuristic) func(seed int64) sched.Strategy {
	if h == nil {
		h = None()
	}
	dispatch := sched.RandomWhenBlockedFactory()
	s := &Strategy{H: h}
	return func(seed int64) sched.Strategy {
		s.Base = dispatch(seed ^ 0x5DEECE66D)
		s.rng = core.Reseed(s.rng, seed)
		s.decisions, s.perturbations = 0, 0
		return s
	}
}

// Name implements sched.Strategy.
func (s *Strategy) Name() string { return "noise:" + s.H.Name() }

// NeedsLocations implements sched.LocationAware: heuristics that key
// their Points on the pending operation's program location need the
// scheduler to capture locations even in listener-free runs. A
// heuristic opts out by implementing core.LocationIndifferent with
// NeedsLocations() false; one without the method keeps capture, and so
// does a location-aware base strategy.
func (s *Strategy) NeedsLocations() bool {
	if li, ok := s.H.(core.LocationIndifferent); ok && !li.NeedsLocations() {
		la, ok := s.Base.(sched.LocationAware)
		return ok && la.NeedsLocations()
	}
	return true
}

// Pick implements sched.Strategy.
func (s *Strategy) Pick(c *sched.Choice) core.ThreadID {
	canPerturb := c.CurrentRunnable() && (len(c.Runnable) > 1 || c.CanIdle)
	if !canPerturb {
		return s.Base.Pick(c)
	}
	if p := c.PendingOf(c.Current); p.Op != core.OpInvalid {
		s.decisions++
		s.point = Point{Thread: c.Current, Op: p.Op, Name: p.Name, Loc: p.Loc}
		if d := s.H.Decide(&s.point, s.rng); d.Noisy() {
			s.perturbations++
			// A sleep-type decision prefers letting virtual time pass
			// (delaying the current thread past pending timer
			// deadlines), matching a real injected delay; otherwise,
			// or when no timer is pending, switch threads.
			if d.Sleep > 0 && c.CanIdle {
				return sched.IdleID
			}
			if len(c.Runnable) > 1 {
				return s.pickOther(c)
			}
			return c.Current
		}
	}
	return s.Base.Pick(c)
}

// pickOther picks a uniformly random runnable thread other than the
// current one (which is runnable): the j-th of the others, in
// c.Runnable order.
func (s *Strategy) pickOther(c *sched.Choice) core.ThreadID {
	j := s.rng.Intn(len(c.Runnable) - 1)
	for _, id := range c.Runnable {
		if id == c.Current {
			continue
		}
		if j == 0 {
			return id
		}
		j--
	}
	panic("noise: current thread not runnable")
}

// Stats returns how many points the heuristic saw and how many it
// perturbed.
func (s *Strategy) Stats() (decisions, perturbations int64) {
	return s.decisions, s.perturbations
}
