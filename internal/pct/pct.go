// Package pct implements probabilistic concurrency testing (PCT,
// after Burckhardt, Kothari, Musuvathi and Nagarakatte's "A Randomized
// Scheduler with Probabilistic Guarantees of Finding Bugs"): a
// randomized priority scheduler with a mathematical lower bound on its
// per-run bug-finding probability, the portfolio's counterpoint to
// both blind noise and systematic search.
//
// Each run assigns every thread a random high priority on first
// appearance and always runs the highest-priority runnable thread —
// by itself that is one random serialization. The power comes from
// d−1 priority-change points sampled uniformly over the run's steps:
// at each, the thread about to run is demoted below every other
// priority, forcing exactly one adversarial switch. A bug of depth d
// (one needing d−1 such forced switches at the right steps plus the
// right thread ordering) is then hit by a single run with probability
// at least
//
//	P ≥ 1/(n · k^(d−1))
//
// for a program with at most n threads and k scheduling steps. The
// benchmark programs have tiny n and k, so even modest run budgets
// push the portfolio's miss probability toward zero; the bound is
// empirically sanity-checked by TestGuaranteeEmpirical.
//
// The step count k is not known a priori, so the finder estimates it
// adaptively: run 1 takes no change points (a pure priority
// serialization, which also measures the program), and every later
// run samples its change points over the longest run observed so far.
// All randomness derives from Options.Seed via core.MixSeed per run
// (never the global math/rand source), so a fixed seed reproduces the
// campaign byte for byte — pinned by TestPCTGolden.
package pct

import (
	"cmp"
	"context"
	"math/rand"

	"mtbench/internal/core"
	"mtbench/internal/instrument"
	"mtbench/internal/sched"
)

// DefaultMaxRuns is the run budget when Options.MaxRuns is zero.
const DefaultMaxRuns = 2000

// DefaultDepth is the targeted bug depth when Options.Depth is zero:
// d = 3 means two priority-change points per run, enough for the
// ordering-plus-two-switches bugs the repository programs plant.
const DefaultDepth = 3

// Options configures a PCT campaign.
type Options struct {
	// MaxRuns bounds how many runs are executed (0 = 2000).
	MaxRuns int
	// MaxSteps bounds each run (0 = sched default).
	MaxSteps int64
	// Seed is the master seed; every run's priorities and change
	// points derive from it via core.MixSeed, so a fixed seed
	// reproduces the campaign exactly.
	Seed int64
	// Depth is the targeted bug depth d (0 = 3): each run after the
	// first takes d−1 priority-change points.
	Depth int
	// StopAtFirstBug ends the campaign at the first non-pass verdict.
	StopAtFirstBug bool
	// Context, when non-nil, cancels the campaign: once it is done the
	// loop stops after its in-flight run. nil is never cancelled.
	Context context.Context
	// Listeners are attached to every run.
	Listeners []core.Listener
	// Name labels runs for RunObserver listeners.
	Name string
	// Plan filters which probes fire in every run (nil = instrument
	// everything).
	Plan *instrument.Plan
}

// Result summarizes a PCT campaign.
type Result struct {
	// Runs is the number of executions performed.
	Runs int
	// BugLog holds the distinct failures found, deduplicated by
	// core.BugSignature and ordered by run number. A bug's Schedule is
	// the executed decision log that exposed it.
	core.BugLog
	// EstimatedSteps is the adaptive step-count estimate k the last
	// run sampled its change points over (the longest observed run).
	EstimatedSteps int64
	// MaxThreads is the largest per-run thread count n observed.
	// Together with EstimatedSteps it instantiates the guarantee:
	// each depth-d run hits a depth-d bug with probability at least
	// 1/(MaxThreads · EstimatedSteps^(d−1)).
	MaxThreads int
}

// priorityBase is the band fresh-thread priorities are drawn from.
// Demotions use negative values, so any demoted thread ranks below
// every undemoted one, and later demotions rank below earlier ones
// (the classic PCT priority layout).
const (
	priorityBase  = int64(1) << 32
	priorityRange = int64(1) << 32
)

// strategy drives one PCT run. Priorities and change points are
// per-run randomness, so the factory resets it in place (reseeded rng,
// cleared tables) before every run.
type strategy struct {
	rng     *rand.Rand
	prio    map[core.ThreadID]int64
	changes map[int64]bool
	// demotions counts change points taken, giving later demotions
	// strictly lower (more negative) priorities.
	demotions int64
	// steps is the length of the run so far.
	steps int64
}

// NewFactory returns the per-run strategy source Run loops over, for
// bug depth d (≤ 0 means DefaultDepth) and the adaptive horizon the
// package comment describes. It builds one strategy on its first call
// and resets it in place on every later call, so the strategy returned
// is valid until the next call: call it after the previous run ended.
func NewFactory(depth int) func(seed int64) sched.Strategy {
	if depth <= 0 {
		depth = DefaultDepth
	}
	f := &factory{depth: depth, s: strategy{prio: map[core.ThreadID]int64{}, changes: map[int64]bool{}}}
	return f.next
}

type factory struct {
	depth   int
	horizon int64
	// s is the one strategy every call hands out; its rng is nil
	// until the first call.
	s strategy
}

func (f *factory) next(seed int64) sched.Strategy {
	s := &f.s
	changePoints := 0
	if s.rng != nil {
		f.horizon = max(f.horizon, s.steps)
		changePoints = f.depth - 1
	}
	s.rng = core.Reseed(s.rng, seed)
	clear(s.prio)
	clear(s.changes)
	s.demotions, s.steps = 0, 0
	horizon := max(f.horizon, 1)
	for int64(len(s.changes)) < int64(changePoints) && int64(len(s.changes)) < horizon {
		s.changes[s.rng.Int63n(horizon)] = true
	}
	return s
}

// Name implements sched.Strategy.
func (*strategy) Name() string { return "pct" }

// Pick implements sched.Strategy: run the highest-priority runnable
// thread, demoting the would-run thread first when this step is a
// change point.
func (s *strategy) Pick(c *sched.Choice) core.ThreadID {
	s.steps = c.Step + 1
	for _, id := range c.Runnable {
		if _, ok := s.prio[id]; !ok {
			s.prio[id] = priorityBase + s.rng.Int63n(priorityRange)
		}
	}
	best := s.highest(c.Runnable)
	if s.changes[c.Step] {
		s.demotions++
		s.prio[best] = -s.demotions
		best = s.highest(c.Runnable)
	}
	return best
}

// highest returns the highest-priority thread among runnable; ties
// (vanishingly rare) break to the lower id because Runnable is sorted.
func (s *strategy) highest(runnable []core.ThreadID) core.ThreadID {
	best := runnable[0]
	for _, id := range runnable[1:] {
		if s.prio[id] > s.prio[best] {
			best = id
		}
	}
	return best
}

// Run executes a PCT campaign over body and returns its summary. It
// is one sched.Loop, serial on one pooled runner: campaign determinism
// rests on finders being serially deterministic, and each run's
// randomness is an independent core.MixSeed stream.
func Run(opts Options, body func(core.T)) *Result {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = DefaultMaxRuns
	}
	res := &Result{}
	next := NewFactory(opts.Depth)
	var st *strategy
	cfg := sched.Config{
		Listeners:      opts.Listeners,
		MaxSteps:       opts.MaxSteps,
		Name:           opts.Name,
		Plan:           opts.Plan,
		RecordSchedule: true,
	}
	// A cancelled campaign keeps the runs it made, so the error is dropped.
	lr, _ := sched.Loop(cmp.Or(opts.Context, context.Background()), opts.MaxRuns, cfg, body, func(i int, cfg *sched.Config) error {
		st = next(core.MixSeed(opts.Seed, int64(i))).(*strategy)
		cfg.Strategy = st
		return nil
	}, func(_ int, r *core.Result) error {
		res.EstimatedSteps = max(res.EstimatedSteps, r.Steps)
		res.MaxThreads = max(res.MaxThreads, len(st.prio))
		if opts.StopAtFirstBug && r.Verdict.Bug() {
			return sched.StopLoop
		}
		return nil
	})
	res.Runs, res.BugLog = lr.Runs, lr.BugLog
	return res
}
