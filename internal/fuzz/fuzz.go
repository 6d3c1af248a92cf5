// Package fuzz implements coverage-guided greybox fuzzing over
// schedules — the middle ground between the two search extremes the
// framework already has. Random noise (internal/noise) samples the
// interleaving space blindly; systematic exploration (internal/explore)
// enumerates it exhaustively and drowns on large programs. Thread-aware
// greybox fuzzing (MUZZ, Chen et al. 2020) sits in between: it keeps a
// corpus of schedules that produced new concurrency coverage, mutates
// them with interleaving-aware operators, and spends its run budget
// near the schedules that already proved interesting.
//
// The representation is the controlled scheduler's decision log: a
// schedule is the per-step sequence of thread picks that
// sched.Config.RecordSchedule captures and internal/replay replays.
// Because a controlled run is a pure function of its decision sequence,
// a mutated log IS a new test input — no process restarts, no
// snapshotting. Infeasible mutants are repaired on the fly by the
// guided strategy (see strategy.go) instead of being discarded, so
// every budgeted run executes and feeds coverage back.
//
// Feedback is the concurrency coverage of internal/coverage: a
// candidate that covers a new variable-contention, blocked-lock or
// access-pair task (or a never-seen outcome) enters the corpus,
// weighted by how much it contributed. Mutation positions are biased
// toward steps where a runnable thread was about to touch a variable
// the cumulative tracker already knows is contended — the fuzzer's
// version of MUZZ's thread-aware instrumentation priming. A
// preemption-bound mutator (after Bindal, Bansal and Lal 2012)
// canonicalizes candidates to few-preemption schedules, the region
// where most real concurrency bugs live.
//
// The run loop reuses the budget and merge idioms of
// internal/explore/parallel.go: MaxRuns is a global budget reserved
// run-by-run from a shared counter, StopAtFirstBug is a global
// wind-down, and bugs deduplicate by core.BugSignature. Workers: 1
// with a fixed Seed is byte-identical run over run (pinned by
// TestFuzzGolden); Workers: N trades that for wall-clock speed while
// still finding the same deduplicated bug set on the benchmark
// programs (TestFuzzWorkersSameBugs).
package fuzz

import (
	"context"

	"mtbench/internal/core"
	"mtbench/internal/instrument"
)

// Defaults for Options zero values.
const (
	DefaultMaxRuns   = 2000
	DefaultMaxCorpus = 256
	// seedRuns is the number of corpus-seeding executions (one
	// nonpreemptive baseline plus random walks) charged against MaxRuns
	// before mutation starts.
	seedRuns = 5
)

// Options configures a fuzzing campaign.
type Options struct {
	// MaxRuns bounds how many schedules are executed (0 = 2000). With
	// Workers > 1 it is a global budget shared by all workers, enforced
	// by reservation exactly like explore.Options.MaxSchedules.
	MaxRuns int
	// MaxSteps bounds each run (0 = sched default).
	MaxSteps int64
	// Seed is the master seed. All randomness — corpus selection,
	// mutator choice, mutation positions, guided-replay repairs and
	// random tails — derives from it, so (Seed, Workers: 1) reproduces
	// a campaign exactly.
	Seed int64
	// Workers is the number of parallel fuzzing workers (0 = 1). Unlike
	// exploration, fuzzing is feedback-driven: with more workers the
	// corpus grows in a schedule-dependent order, so only Workers: 1 is
	// deterministic. Budgets and the bug set remain global.
	Workers int
	// StopAtFirstBug ends the campaign at the first non-pass verdict.
	// The stop is global: in-flight runs on other workers finish and
	// are counted, then the campaign winds down.
	StopAtFirstBug bool
	// Context, when non-nil, cancels the campaign: once it is done
	// every worker winds down after its in-flight run, as under
	// StopAtFirstBug. nil is never cancelled.
	Context context.Context
	// PreemptionBound, when non-nil, fixes the budget the
	// preemption-bound mutator canonicalizes candidates to. When nil
	// the mutator stays enabled but draws a small bound (0..2) per
	// mutation, which preserves the few-preemption bias without
	// excluding deeper schedules.
	PreemptionBound *int
	// MaxCorpus caps retained corpus entries (0 = 256); when full, the
	// lowest-gain entry after the baseline seed is evicted.
	MaxCorpus int
	// Listeners are attached to every run. With Workers > 1, runs
	// execute concurrently, so listeners must be safe for concurrent
	// use.
	Listeners []core.Listener
	// Name labels runs for RunObserver listeners.
	Name string
	// Plan filters which probes fire in every run (nil = instrument
	// everything); rewrite-pipeline programs pass their escape-analysis
	// plan through here.
	Plan *instrument.Plan
}

// Bound is a convenience for Options.PreemptionBound.
func Bound(n int) *int { return &n }

// Result summarizes a fuzzing campaign.
type Result struct {
	// Runs is the number of executions performed (seeding included).
	Runs int
	// BugLog holds the distinct failures found, deduplicated by
	// core.BugSignature and ordered by run number. A bug's Schedule is
	// the executed decision log that exposed it.
	core.BugLog
	// CorpusSize is the number of interesting schedules retained.
	CorpusSize int
	// Coverage is the number of distinct coverage tasks (plus distinct
	// outcomes) accumulated over the whole campaign.
	Coverage int
	// CoverageRuns counts runs that contributed at least one new task —
	// the fuzzer's progress curve, comparable across campaigns.
	CoverageRuns int
	// Repairs counts mutated decisions that were infeasible at
	// execution time and were repaired by the guided strategy.
	Repairs int64
	// Ops histograms executed runs by the mutation operator that
	// produced them ("seed" for the corpus-seeding runs).
	Ops map[string]int
}

// Fuzz runs a coverage-guided schedule-fuzzing campaign over body and
// returns its summary. See the package comment for the search design;
// see worker.go for the budget and merge machinery.
func Fuzz(opts Options, body func(core.T)) *Result {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = DefaultMaxRuns
	}
	if opts.MaxCorpus <= 0 {
		opts.MaxCorpus = DefaultMaxCorpus
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	return newCoordinator(opts, body).run()
}
