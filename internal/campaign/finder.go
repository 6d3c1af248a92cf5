// The finder registry: every tool the campaign matrix compares,
// wrapped behind one per-cell signature. A finder spends at most the
// cell's budget, deduplicates what it finds by core.BugSignature, and
// must be a pure function of its CellInput — campaign determinism
// rests on every finder being serially deterministic inside its cell,
// with parallelism living one level up in the cell pool.
package campaign

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"mtbench/internal/core"
	"mtbench/internal/explore"
	"mtbench/internal/fuzz"
	"mtbench/internal/noise"
	"mtbench/internal/pct"
	"mtbench/internal/race"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
	"mtbench/internal/strategies"
)

// Finder is one registered tool.
type Finder struct {
	// Name is the matrix key ("noise", "explore", "fuzz", "race").
	Name string
	// Doc is the one-line description the CLI lists.
	Doc string
	// run executes one cell; built-in and registered finders share
	// this signature (see RegisterFinder for its contract).
	run func(ctx context.Context, in CellInput) (CellResult, error)
}

// finderTable is the registry, keyed by name: the one place a tool
// name turns into an engine call. Only DefaultFinders make up the gate
// matrix; the rest are the prepared experiments' rows (E1's noise
// makers, E5's exploration ablations, E13's explore-pb).
var finderTable = map[string]*Finder{
	"noise": {
		Name: "noise",
		Doc:  "yield-noise over random dispatch, one fresh derived seed per run",
		run:  loopFinder(fromTable("noise", strategies.Params{P: 0.4})),
	},
	"explore": {
		Name: "explore",
		Doc:  "systematic serial DFS over schedules (seed-invariant)",
		run:  exploreFinder("explore", func(CellInput, *explore.Options) {}),
	},
	"explore-pb": {
		Name: "explore-pb",
		Doc:  "preemption-bounded serial DFS: at most 2 preemptions per schedule (seed-invariant; not in DefaultFinders)",
		// E13's classic context-bounding row. It stays out of
		// DefaultFinders, so the gate matrix and its baseline are
		// unchanged by it.
		run: exploreFinder("explore-pb", func(_ CellInput, o *explore.Options) {
			o.PreemptionBound = explore.Bound(2)
		}),
	},
	"explore-por": {
		Name: "explore-por",
		Doc:  "reduced serial DFS: dynamic partial-order reduction + state caching (seed-invariant)",
		// The reduced systematic extreme: within the shared budget it
		// reaches (and usually exhausts) trees the full DFS cannot, so
		// a reduction regression shows up as a lost bug or a worse
		// first-bug envelope.
		run: exploreFinder("explore-por", func(_ CellInput, o *explore.Options) {
			o.DPOR, o.StateCache = true, true
		}),
	},
	"explore-vb": {
		Name: "explore-vb",
		Doc:  "variable-bounded serial DFS: context switches limited to few distinct shared objects (seed-invariant)",
		// Bindal et al.'s variable bounding: an exponentially smaller
		// tree the bounded search exhausts within the shared budget,
		// the portfolio bet experiment E13 measures.
		run: exploreFinder("explore-vb", func(in CellInput, o *explore.Options) {
			o.VariableBound = explore.Bound(orDefault(in.VariableBound, DefaultVariableBound))
		}),
	},
	"explore-tb": {
		Name: "explore-tb",
		Doc:  "thread-bounded serial DFS: preemptions limited to few distinct threads (seed-invariant)",
		run: exploreFinder("explore-tb", func(in CellInput, o *explore.Options) {
			o.ThreadBound = explore.Bound(orDefault(in.ThreadBound, DefaultThreadBound))
		}),
	},
	"pct": {
		Name: "pct",
		Doc:  "probabilistic concurrency testing: random priorities + d-1 change points per run (internal/pct)",
		run:  runPCTFinder,
	},
	"fuzz": {
		Name: "fuzz",
		Doc:  "coverage-guided schedule fuzzing (internal/fuzz, one worker)",
		run:  runFuzzFinder,
	},
	"race": {
		Name: "race",
		Doc:  "hybrid race detector over round-robin and random schedules; warnings count as race:<var> bugs",
		run:  runRaceFinder,
	},

	// E5's exploration ablations and its random-search extreme.
	"explore-pb1": {Name: "explore-pb1", Doc: "serial DFS with at most 1 preemption per schedule (seed-invariant; not in DefaultFinders)",
		run: exploreFinder("explore-pb1", func(_ CellInput, o *explore.Options) { o.PreemptionBound = explore.Bound(1) })},
	"explore-sleep": {Name: "explore-sleep", Doc: "serial DFS with sleep sets (seed-invariant; not in DefaultFinders)",
		run: exploreFinder("explore-sleep", func(_ CellInput, o *explore.Options) { o.SleepSets = true })},
	"explore-dpor": {Name: "explore-dpor", Doc: "serial DFS with dynamic partial-order reduction, no state cache (seed-invariant; not in DefaultFinders)",
		run: exploreFinder("explore-dpor", func(_ CellInput, o *explore.Options) { o.DPOR = true })},
	"explore-timeouts": {Name: "explore-timeouts", Doc: "serial DFS that also explores timed-wait expiries, at most 2 preemptions (seed-invariant; not in DefaultFinders)",
		run: exploreFinder("explore-timeouts", func(_ CellInput, o *explore.Options) {
			o.ExploreTimeouts, o.PreemptionBound = true, explore.Bound(2)
		})},
	"random": {Name: "random", Doc: "a fresh seeded random scheduler per run (not in DefaultFinders)",
		run: loopFinder(fromTable("random", strategies.Params{}))},

	// E1's noise makers (§2.2). All but baseline run over random
	// dispatch; noise itself is E1's yield-0.4 row.
	"baseline": {Name: "baseline", Doc: "the deterministic run-to-block scheduler, no noise (not in DefaultFinders)",
		run: loopFinder(fromTable("baseline", strategies.Params{}))},
	"noise-none": {Name: "noise-none", Doc: "random dispatch with no injected noise (not in DefaultFinders)",
		run: loopFinder(heuristic(noise.None))},
	"noise-yield-0.1": {Name: "noise-yield-0.1", Doc: "yield-noise at p=0.1 over random dispatch (not in DefaultFinders)",
		run: loopFinder(fromTable("noise", strategies.Params{P: 0.1}))},
	"noise-sleep-0.4": {Name: "noise-sleep-0.4", Doc: "sleep-noise at p=0.4 over random dispatch (not in DefaultFinders)",
		run: loopFinder(fromTable("noise", strategies.Params{P: 0.4, Kind: "sleep"}))},
	"noise-sharedvar": {Name: "noise-sharedvar", Doc: "yield-noise at p=0.4 on shared-variable accesses only (not in DefaultFinders)",
		run: loopFinder(heuristic(func() noise.Heuristic { return noise.SharedVarNoise(0.4) }))},
	"noise-sync": {Name: "noise-sync", Doc: "yield-noise at p=0.4 on synchronization operations only (not in DefaultFinders)",
		run: loopFinder(heuristic(func() noise.Heuristic { return noise.SyncNoise(0.4) }))},
	"noise-statistical": {Name: "noise-statistical", Doc: "noise that favours rarely perturbed locations, learning across the cell's runs (not in DefaultFinders)",
		run: loopFinder(heuristic(func() noise.Heuristic { return noise.NewStatistical(0.6, 0.7) }))},
	"noise-covdirected": {Name: "noise-covdirected", Doc: "noise that favours rarely exercised (object, location) pairs, learning across the cell's runs (not in DefaultFinders)",
		run: loopFinder(heuristic(func() noise.Heuristic { return noise.NewCoverageDirected(0.8) }))},
}

// Finders returns the registered finder names, sorted.
func Finders() []string {
	out := make([]string, 0, len(finderTable))
	for name := range finderTable {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FinderDoc returns a finder's one-line description.
func FinderDoc(name string) string {
	if f, ok := finderTable[name]; ok {
		return f.Doc
	}
	return ""
}

func getFinder(name string) (*Finder, error) {
	f, ok := finderTable[name]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown finder %q (have %v)", name, Finders())
	}
	return f, nil
}

// CellInput is what a finder receives for one cell: the resolved
// program, its parameter-applied body, the cell's identity and budgets,
// and the engine knobs the config carries.
type CellInput struct {
	Program  *repository.Program
	Body     func(core.T)
	Seed     int64
	Budget   int
	MaxSteps int64
	// VariableBound, ThreadBound and PCTDepth are the config's
	// overrides, 0 = the finder's default.
	VariableBound int
	ThreadBound   int
	PCTDepth      int
}

// CellResult is a finder's raw per-cell result.
type CellResult struct {
	// Runs is the number of executions actually spent (≤ Budget).
	Runs int
	// Bugs are distinct bug signatures; they are deduplicated and
	// sorted before storing.
	Bugs []string
	// FirstBug is the 1-based index of the first bug-exposing run, or
	// -1 when the cell found nothing.
	FirstBug int
	// Counters are named engine counters the report tables read: every
	// explore finder sets "exhausted" (0 or 1), the variable- and
	// thread-bounded ones also "bound_pruned", the sleep-set and DPOR
	// ones "pruned", the state-caching ones "cache_hits"; the run-loop
	// finders set "detected" and "steps". nil for fuzz and pct.
	Counters map[string]int64
}

// RegisterFinder adds a finder to the campaign registry under name —
// the campaign mirror of repository.Register, so external tools (and
// the fault-injection test suites) extend the matrix without editing
// this package. Register at init time, before any campaign resolves
// its matrix; the registry is not synchronized.
//
// The function must be a pure function of its inputs for fixed-seed
// campaigns to stay reproducible, and should honour ctx between runs:
// cancellation means the cell is being killed (return ctx.Err(), the
// partial result is discarded), a deadline means Config.CellTimeout
// fired. Panics need no handling — the executor recovers them into
// "panic:" records (in-process) or fail reports (distributed).
func RegisterFinder(name, doc string, fn func(ctx context.Context, in CellInput) (CellResult, error)) error {
	if name == "" || strings.ContainsAny(name, "|\n ") {
		return fmt.Errorf("campaign: invalid finder name %q", name)
	}
	if fn == nil {
		return fmt.Errorf("campaign: finder %q registered with nil function", name)
	}
	if _, dup := finderTable[name]; dup {
		return fmt.Errorf("campaign: finder %q already registered", name)
	}
	finderTable[name] = &Finder{Name: name, Doc: doc, run: fn}
	return nil
}

// mix derives a per-run seed from the cell seed and a run index via
// the shared core.MixSeed derivation (the same one the fuzzer uses),
// so the runs of one cell are decorrelated but reproducible.
func mix(seed, stream int64) int64 { return core.MixSeed(seed, stream) }

// Gate bounds for the bounded finders when the config leaves them
// zero: both gate programs (and every repository program measured so
// far) expose their full documented bug set at bound 2, pinned by
// TestBoundedEquivalence.
const (
	DefaultVariableBound = 2
	DefaultThreadBound   = 2
)

func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// loopFinder spends the cell's budget on fresh runs of one tool, run i
// seeded mix(seed, i). newTool builds the tool once per cell, so an
// adaptive noise heuristic learns across the cell's runs, and the
// tool's factory reseeds one strategy in place run after run.
func loopFinder(newTool func() strategies.Factory) func(context.Context, CellInput) (CellResult, error) {
	return func(ctx context.Context, in CellInput) (CellResult, error) {
		tool := newTool()
		lr, err := sched.Loop(ctx, in.Budget, cellConfig(in), in.Body, func(i int, cfg *sched.Config) error {
			cfg.Seed = mix(in.Seed, int64(i))
			cfg.Strategy = tool(cfg.Seed)
			return nil
		}, nil)
		return loopResult(lr, lr.FirstBugIndex(), err)
	}
}

// cellConfig is what every run of a cell shares.
func cellConfig(in CellInput) sched.Config {
	return sched.Config{Name: in.Program.Name, MaxSteps: in.MaxSteps, Plan: in.Program.Plan}
}

// loopResult is a run-loop finder's cell: verdict bugs by signature and
// the "detected" and "steps" counters. A loop error discards the cell.
func loopResult(lr sched.LoopResult, first int, err error) (CellResult, error) {
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Runs: lr.Runs, Bugs: lr.Signatures(), FirstBug: first,
		Counters: map[string]int64{"detected": lr.Detected, "steps": lr.Steps}}, nil
}

// fromTable is the strategies table's name entry; the registry passes
// only valid constant parameters.
func fromTable(name string, p strategies.Params) func() strategies.Factory {
	return func() strategies.Factory {
		f, err := strategies.New(name, p)
		if err != nil {
			panic(err)
		}
		return f
	}
}

// heuristic runs one noise heuristic instance per cell over random
// dispatch.
func heuristic(newH func() noise.Heuristic) func() strategies.Factory {
	return func() strategies.Factory { return noise.NewFactory(newH()) }
}

// runRaceFinder attaches the hybrid race detector to one round-robin
// run (maximal forced contention, fully deterministic — repeating it
// would add nothing) followed by seeded-random schedules, the E2
// spread without E2's duplicated determinism. Verdict bugs count by
// signature as everywhere; race warnings count as "race:<var>"
// signatures — including false alarms, deliberately: the gate guards
// the tool's output, and a detector that stops warning where it used
// to warn has changed behaviour either way.
func runRaceFinder(ctx context.Context, in CellInput) (CellResult, error) {
	det := race.NewHybrid(true)
	listeners := []core.Listener{det}
	random := sched.RandomFactory()
	first := -1
	lr, err := sched.Loop(ctx, in.Budget, cellConfig(in), in.Body, func(i int, cfg *sched.Config) error {
		cfg.Seed, cfg.Listeners = in.Seed, listeners
		if i == 0 {
			cfg.Strategy = sched.RoundRobin()
		} else {
			cfg.Strategy = random(mix(in.Seed, int64(i)))
		}
		return nil
	}, func(i int, res *core.Result) error {
		// A run's first race warning marks the first bug as a bug verdict does.
		if first < 0 && (res.Verdict.Bug() || len(det.Warnings()) > 0) {
			first = i + 1
		}
		return nil
	})
	res, err := loopResult(lr, first, err)
	if err != nil {
		return res, err
	}
	for _, v := range det.WarnedVars() {
		res.Bugs = append(res.Bugs, "race:"+v)
	}
	return res, nil
}

// exploreFinder builds a systematic finder: a serial DFS under the
// cell's schedule budget, with preset switching on the reduction or
// bounding that distinguishes name. The DFS is deterministic and
// ignores the seed; seeds still enumerate cells so the matrix stays
// rectangular, and multi-seed configs simply pin that exploration
// reproduces.
func exploreFinder(name string, preset func(in CellInput, o *explore.Options)) func(context.Context, CellInput) (CellResult, error) {
	return func(ctx context.Context, in CellInput) (CellResult, error) {
		opts := explore.Options{
			MaxSchedules: in.Budget,
			MaxSteps:     in.MaxSteps,
			Workers:      1,
			Context:      ctx,
			Name:         in.Program.Name,
			Plan:         in.Program.Plan,
		}
		preset(in, &opts)
		er := explore.Explore(opts, in.Body)
		if err := ctx.Err(); err != nil {
			return CellResult{}, err
		}
		if er.Err != nil {
			return CellResult{}, fmt.Errorf("%s %s: %w", name, in.Program.Name, er.Err)
		}
		counters := map[string]int64{"exhausted": 0}
		if er.Exhausted {
			counters["exhausted"] = 1
		}
		if opts.VariableBound != nil || opts.ThreadBound != nil {
			counters["bound_pruned"] = int64(er.Stats.VBPruned + er.Stats.TBPruned)
		}
		if opts.SleepSets || opts.DPOR {
			counters["pruned"] = int64(er.Stats.SleepPruned + er.Stats.PORPruned)
		}
		if opts.StateCache {
			counters["cache_hits"] = int64(er.Stats.StateHits)
		}
		return CellResult{Runs: er.Schedules, Bugs: er.Signatures(), FirstBug: er.FirstBugIndex(), Counters: counters}, nil
	}
}

// runPCTFinder is the randomized-with-guarantees regime: one serial
// PCT campaign under the cell's run budget (see internal/pct for the
// depth-d probability bound).
func runPCTFinder(ctx context.Context, in CellInput) (CellResult, error) {
	pr := pct.Run(pct.Options{
		MaxRuns:  in.Budget,
		MaxSteps: in.MaxSteps,
		Seed:     in.Seed,
		Depth:    in.PCTDepth,
		Context:  ctx,
		Name:     in.Program.Name,
		Plan:     in.Program.Plan,
	}, in.Body)
	if err := ctx.Err(); err != nil {
		return CellResult{}, err
	}
	return CellResult{Runs: pr.Runs, Bugs: pr.Signatures(), FirstBug: pr.FirstBugIndex()}, nil
}

// runFuzzFinder is the greybox middle ground: one deterministic fuzz
// worker under the cell's run budget.
func runFuzzFinder(ctx context.Context, in CellInput) (CellResult, error) {
	fr := fuzz.Fuzz(fuzz.Options{
		MaxRuns:  in.Budget,
		MaxSteps: in.MaxSteps,
		Seed:     in.Seed,
		Workers:  1,
		Context:  ctx,
		Name:     in.Program.Name,
		Plan:     in.Program.Plan,
	}, in.Body)
	if err := ctx.Err(); err != nil {
		return CellResult{}, err
	}
	return CellResult{Runs: fr.Runs, Bugs: fr.Signatures(), FirstBug: fr.FirstBugIndex()}, nil
}
