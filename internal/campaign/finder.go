// The finder registry: every tool the campaign matrix compares,
// wrapped behind one per-cell interface. A finder spends at most the
// cell's budget, deduplicates what it finds by core.BugSignature, and
// must be a pure function of (program, params, seed, budget, max
// steps) — campaign determinism rests on every finder being serially
// deterministic inside its cell, with parallelism living one level up
// in the cell pool.
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
)

// Finder is one registered tool.
type Finder struct {
	// Name is the matrix key ("noise", "explore", "fuzz", "race").
	Name string
	// Doc is the one-line description the CLI lists.
	Doc string
	// run executes one cell. The context carries the cell's wall-clock
	// deadline (Config.CellTimeout) and kill signal: per-run loop
	// finders check it between runs and return ctx.Err() early; the
	// engine finders (explore, fuzz, pct) run uninterruptible library
	// calls and rely on the exec watchdog to abandon them.
	run func(ctx context.Context, spec cellSpec) (cellOutcome, error)
}

// cellSpec is everything a finder needs to execute one cell.
type cellSpec struct {
	prog     *repository.Program
	body     func(core.T)
	seed     int64
	budget   int
	maxSteps int64
	vbound   int
	tbound   int
	pctDepth int
}

// cellOutcome is a finder's raw per-cell result before it becomes a
// Record.
type cellOutcome struct {
	runs     int
	bugs     []string // deduplicated signatures, sorted before storing
	firstBug int      // 1-based run index, -1 = none
}

// finderTable is the registry, keyed by name.
var finderTable = map[string]*Finder{
	"noise": {
		Name: "noise",
		Doc:  "yield-noise over random dispatch, one fresh derived seed per run",
		run:  runNoiseFinder,
	},
	"explore": {
		Name: "explore",
		Doc:  "systematic serial DFS over schedules (seed-invariant)",
		run:  runExploreFinder,
	},
	"explore-por": {
		Name: "explore-por",
		Doc:  "reduced serial DFS: dynamic partial-order reduction + state caching (seed-invariant)",
		run:  runExplorePORFinder,
	},
	"explore-vb": {
		Name: "explore-vb",
		Doc:  "variable-bounded serial DFS: context switches limited to few distinct shared objects (seed-invariant)",
		run:  runExploreVBFinder,
	},
	"explore-tb": {
		Name: "explore-tb",
		Doc:  "thread-bounded serial DFS: preemptions limited to few distinct threads (seed-invariant)",
		run:  runExploreTBFinder,
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

// CellInput is what an externally registered finder receives for one
// cell: the resolved program, its parameter-applied body, and the
// cell's identity and budgets.
type CellInput struct {
	Program  *repository.Program
	Body     func(core.T)
	Seed     int64
	Budget   int
	MaxSteps int64
}

// CellResult is an externally registered finder's raw per-cell result.
type CellResult struct {
	// Runs is the number of executions actually spent (≤ Budget).
	Runs int
	// Bugs are distinct bug signatures; they are deduplicated and
	// sorted before storing.
	Bugs []string
	// FirstBug is the 1-based index of the first bug-exposing run, or
	// -1 when the cell found nothing.
	FirstBug int
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
	finderTable[name] = &Finder{
		Name: name,
		Doc:  doc,
		run: func(ctx context.Context, spec cellSpec) (cellOutcome, error) {
			res, err := fn(ctx, CellInput{
				Program:  spec.prog,
				Body:     spec.body,
				Seed:     spec.seed,
				Budget:   spec.budget,
				MaxSteps: spec.maxSteps,
			})
			if err != nil {
				return cellOutcome{}, err
			}
			return cellOutcome{runs: res.Runs, bugs: res.Bugs, firstBug: res.FirstBug}, nil
		},
	}
	return nil
}

// mix derives a per-run seed from the cell seed and a run index via
// the shared core.MixSeed derivation (the same one the fuzzer uses),
// so the runs of one cell are decorrelated but reproducible.
func mix(seed, stream int64) int64 { return core.MixSeed(seed, stream) }

// bugSet accumulates deduplicated signatures in first-seen order.
type bugSet struct {
	seen map[string]bool
	sigs []string
}

func (b *bugSet) add(sig string) {
	if b.seen == nil {
		b.seen = map[string]bool{}
	}
	if !b.seen[sig] {
		b.seen[sig] = true
		b.sigs = append(b.sigs, sig)
	}
}

// runNoiseFinder is the ConTest-style baseline: every budget unit is
// one fresh-seeded noise run (Bernoulli yield noise over random
// dispatch, the E11 configuration) through one pooled runner.
func runNoiseFinder(ctx context.Context, spec cellSpec) (cellOutcome, error) {
	runner := sched.NewRunner()
	defer runner.Close()
	var bugs bugSet
	first := -1
	for i := 0; i < spec.budget; i++ {
		if err := ctx.Err(); err != nil {
			return cellOutcome{}, err
		}
		runSeed := mix(spec.seed, int64(i))
		st := noise.NewStrategy(nil, noise.NewBernoulli(0.4, noise.KindYield), runSeed)
		res := runner.Run(sched.Config{
			Strategy: st,
			Seed:     runSeed,
			Name:     spec.prog.Name,
			MaxSteps: spec.maxSteps,
			Plan:     spec.prog.Plan,
		}, spec.body)
		if res.Verdict.Bug() {
			bugs.add(core.BugSignature(res))
			if first < 0 {
				first = i + 1
			}
		}
	}
	return cellOutcome{runs: spec.budget, bugs: bugs.sigs, firstBug: first}, nil
}

// runExploreFinder is the systematic extreme: a serial DFS under the
// cell's schedule budget. The DFS is deterministic and ignores the
// seed; seeds still enumerate cells so the matrix stays rectangular,
// and multi-seed configs simply pin that exploration reproduces.
func runExploreFinder(ctx context.Context, spec cellSpec) (cellOutcome, error) {
	er := explore.Explore(explore.Options{
		MaxSchedules: spec.budget,
		MaxSteps:     spec.maxSteps,
		Workers:      1,
		Name:         spec.prog.Name,
		Plan:         spec.prog.Plan,
	}, spec.body)
	if er.Err != nil {
		return cellOutcome{}, fmt.Errorf("explore %s: %w", spec.prog.Name, er.Err)
	}
	var bugs bugSet
	for _, b := range er.Bugs {
		bugs.add(core.BugSignature(b.Result))
	}
	return cellOutcome{runs: er.Schedules, bugs: bugs.sigs, firstBug: er.FirstBugIndex()}, nil
}

// runExplorePORFinder is the reduced systematic extreme: the same
// serial DFS under the same budget, with dynamic partial-order
// reduction and the canonical-state cache pruning schedules that only
// re-prove an already-explored partial order. Its cells pin the pruned
// budgets: within the shared budget the reduced search reaches (and
// usually exhausts) trees the full DFS cannot, so a reduction
// regression shows up as a lost bug or a worse first-bug envelope.
func runExplorePORFinder(ctx context.Context, spec cellSpec) (cellOutcome, error) {
	er := explore.Explore(explore.Options{
		MaxSchedules: spec.budget,
		MaxSteps:     spec.maxSteps,
		Workers:      1,
		DPOR:         true,
		StateCache:   true,
		Name:         spec.prog.Name,
		Plan:         spec.prog.Plan,
	}, spec.body)
	if er.Err != nil {
		return cellOutcome{}, fmt.Errorf("explore-por %s: %w", spec.prog.Name, er.Err)
	}
	var bugs bugSet
	for _, b := range er.Bugs {
		bugs.add(core.BugSignature(b.Result))
	}
	return cellOutcome{runs: er.Schedules, bugs: bugs.sigs, firstBug: er.FirstBugIndex()}, nil
}

// Gate bounds for the bounded finders when the config leaves them
// zero: both gate programs (and every repository program measured so
// far) expose their full documented bug set at bound 2, pinned by
// TestBoundedEquivalence.
const (
	DefaultVariableBound = 2
	DefaultThreadBound   = 2
)

// runExploreVBFinder is the variable-bounded systematic regime
// (Bindal et al.): the same serial DFS under the same budget, with
// context switches restricted to schedules that involve at most
// vbound distinct shared objects. The bounded tree is exponentially
// smaller, so within the shared budget the bounded search exhausts
// programs the full DFS cannot — the portfolio bet the E13 experiment
// measures.
func runExploreVBFinder(ctx context.Context, spec cellSpec) (cellOutcome, error) {
	bound := spec.vbound
	if bound <= 0 {
		bound = DefaultVariableBound
	}
	er := explore.Explore(explore.Options{
		MaxSchedules:  spec.budget,
		MaxSteps:      spec.maxSteps,
		Workers:       1,
		VariableBound: explore.Bound(bound),
		Name:          spec.prog.Name,
		Plan:          spec.prog.Plan,
	}, spec.body)
	if er.Err != nil {
		return cellOutcome{}, fmt.Errorf("explore-vb %s: %w", spec.prog.Name, er.Err)
	}
	var bugs bugSet
	for _, b := range er.Bugs {
		bugs.add(core.BugSignature(b.Result))
	}
	return cellOutcome{runs: er.Schedules, bugs: bugs.sigs, firstBug: er.FirstBugIndex()}, nil
}

// runExploreTBFinder is the thread-bounded systematic regime (Bindal
// et al.): preemptions restricted to at most tbound distinct threads
// per schedule, arbitrarily many preemptions against that set.
func runExploreTBFinder(ctx context.Context, spec cellSpec) (cellOutcome, error) {
	bound := spec.tbound
	if bound <= 0 {
		bound = DefaultThreadBound
	}
	er := explore.Explore(explore.Options{
		MaxSchedules: spec.budget,
		MaxSteps:     spec.maxSteps,
		Workers:      1,
		ThreadBound:  explore.Bound(bound),
		Name:         spec.prog.Name,
		Plan:         spec.prog.Plan,
	}, spec.body)
	if er.Err != nil {
		return cellOutcome{}, fmt.Errorf("explore-tb %s: %w", spec.prog.Name, er.Err)
	}
	var bugs bugSet
	for _, b := range er.Bugs {
		bugs.add(core.BugSignature(b.Result))
	}
	return cellOutcome{runs: er.Schedules, bugs: bugs.sigs, firstBug: er.FirstBugIndex()}, nil
}

// runPCTFinder is the randomized-with-guarantees regime: one serial
// PCT campaign under the cell's run budget (see internal/pct for the
// depth-d probability bound).
func runPCTFinder(ctx context.Context, spec cellSpec) (cellOutcome, error) {
	pr := pct.Run(pct.Options{
		MaxRuns:  spec.budget,
		MaxSteps: spec.maxSteps,
		Seed:     spec.seed,
		Depth:    spec.pctDepth,
		Name:     spec.prog.Name,
		Plan:     spec.prog.Plan,
	}, spec.body)
	var bugs bugSet
	for _, b := range pr.Bugs {
		bugs.add(core.BugSignature(b.Result))
	}
	return cellOutcome{runs: pr.Runs, bugs: bugs.sigs, firstBug: pr.FirstBugIndex()}, nil
}

// runFuzzFinder is the greybox middle ground: one deterministic fuzz
// worker under the cell's run budget.
func runFuzzFinder(ctx context.Context, spec cellSpec) (cellOutcome, error) {
	fr := fuzz.Fuzz(fuzz.Options{
		MaxRuns:  spec.budget,
		MaxSteps: spec.maxSteps,
		Seed:     spec.seed,
		Workers:  1,
		Name:     spec.prog.Name,
		Plan:     spec.prog.Plan,
	}, spec.body)
	var bugs bugSet
	for _, b := range fr.Bugs {
		bugs.add(core.BugSignature(b.Result))
	}
	return cellOutcome{runs: fr.Runs, bugs: bugs.sigs, firstBug: fr.FirstBugIndex()}, nil
}

// runRaceFinder attaches the hybrid race detector to one round-robin
// run (maximal forced contention, fully deterministic — repeating it
// would add nothing) followed by seeded-random schedules, the E2
// spread without E2's duplicated determinism. Verdict bugs count by
// signature as everywhere; race warnings count as "race:<var>"
// signatures — including false alarms, deliberately: the gate guards
// the tool's output, and a detector that stops warning where it used
// to warn has changed behaviour either way.
func runRaceFinder(ctx context.Context, spec cellSpec) (cellOutcome, error) {
	runner := sched.NewRunner()
	defer runner.Close()
	det := race.NewHybrid(true)
	var bugs bugSet
	first := -1
	for i := 0; i < spec.budget; i++ {
		if err := ctx.Err(); err != nil {
			return cellOutcome{}, err
		}
		var st sched.Strategy
		if i == 0 {
			st = sched.RoundRobin()
		} else {
			st = sched.Random(mix(spec.seed, int64(i)))
		}
		res := runner.Run(sched.Config{
			Strategy:  st,
			Listeners: []core.Listener{det},
			Seed:      spec.seed,
			Name:      spec.prog.Name,
			MaxSteps:  spec.maxSteps,
			Plan:      spec.prog.Plan,
		}, spec.body)
		if res.Verdict.Bug() {
			bugs.add(core.BugSignature(res))
			if first < 0 {
				first = i + 1
			}
		}
		if first < 0 && len(det.Warnings()) > 0 {
			first = i + 1
		}
	}
	for _, v := range det.WarnedVars() {
		bugs.add("race:" + v)
	}
	return cellOutcome{runs: spec.budget, bugs: bugs.sigs, firstBug: first}, nil
}
