package experiment

import (
	"time"

	"mtbench/internal/core"
	"mtbench/internal/explore"
	"mtbench/internal/fuzz"
	"mtbench/internal/noise"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// E11 — coverage-guided schedule fuzzing versus the two search
// extremes it interpolates between: blind noise injection and
// systematic exploration. The three-way table is exactly the
// comparison the paper's framework exists to enable — same programs,
// same run budget, different search strategy — extended with targets
// (abastack, semleak, rwupgrade, waitholdinglock) that none of the
// stock tools were tuned on.

// FuzzConfig parameterizes E11.
type FuzzConfig struct {
	// Programs and the budget each method gets per program.
	Programs []string
	// Budget is the number of runs/schedules every method may spend per
	// program (0 = 2000).
	Budget int
	// Workers is the fuzzing/exploration worker-pool size (0 = 1, the
	// deterministic choice; the table reports runs-to-first-bug, which
	// is only reproducible serially).
	Workers int
	// Seed is the fuzzer's master seed.
	Seed int64
}

// DefaultFuzzPrograms is the E11 spread: the exploration experiment's
// classics plus the scenario-diversity additions the existing tools
// were not tuned on.
var DefaultFuzzPrograms = []string{
	"account", "bankwithdraw", "statmax", "philosophers",
	"abastack", "semleak", "rwupgrade", "waitholdinglock",
}

// fuzzParams shrinks the larger programs the same way E5 does, so all
// three methods face identical instances.
var fuzzParams = map[string]repository.Params{
	"account":      {"depositors": 2, "deposits": 1},
	"statmax":      {"reporters": 2},
	"philosophers": {"philosophers": 2, "rounds": 1},
}

// Fuzz runs E11: per program, distinct bugs found and runs to first
// bug for schedule fuzzing, random noise and systematic DFS under one
// shared run budget.
func Fuzz(cfg FuzzConfig) ([]*Table, error) {
	if len(cfg.Programs) == 0 {
		cfg.Programs = DefaultFuzzPrograms
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 2000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}

	t := &Table{
		ID:      "E11",
		Title:   "schedule fuzzing vs noise vs systematic exploration (shared run budget)",
		Columns: []string{"program", "method", "runs", "bugs", "first_bug", "wall_ms"},
	}
	t.Note("every method spends at most %d runs per program; first_bug = 1-based run index, '-' = not found", cfg.Budget)
	t.Note("fuzz = coverage-guided schedule mutation (internal/fuzz); noise = yield-noise over random dispatch, fresh seed per run; explore = serial DFS")
	t.Note("bugs = distinct failures by signature (core.BugSignature)")

	for _, name := range cfg.Programs {
		prog, err := repository.Get(name)
		if err != nil {
			return nil, err
		}
		body := prog.BodyWith(fuzzParams[name])

		// Coverage-guided schedule fuzzing.
		start := time.Now()
		fr := fuzz.Fuzz(fuzz.Options{
			MaxRuns: cfg.Budget,
			Seed:    cfg.Seed,
			Workers: cfg.Workers,
			Name:    name,
		}, body)
		addE11Row(t, name, "fuzz", fr.Runs, len(fr.Bugs), fr.FirstBugIndex(), start)

		// Noise baseline: one fresh-seeded noise run per budget unit.
		start = time.Now()
		var noiseBugs core.BugLog
		for seed := int64(0); seed < int64(cfg.Budget); seed++ {
			st := noise.NewStrategy(nil, noise.NewBernoulli(0.4, noise.KindYield), seed)
			res := sched.Run(sched.Config{Strategy: st, Seed: seed, Name: name, MaxSteps: 200_000}, body)
			if res.Verdict.Bug() {
				noiseBugs.Add(res, int(seed)+1)
			}
		}
		addE11Row(t, name, "noise", cfg.Budget, len(noiseBugs.Bugs), noiseBugs.FirstBugIndex(), start)

		// Systematic exploration under the same budget.
		start = time.Now()
		er := explore.Explore(explore.Options{
			MaxSchedules: cfg.Budget,
			Workers:      cfg.Workers,
			Name:         name,
		}, body)
		if er.Err != nil {
			return nil, er.Err
		}
		addE11Row(t, name, "explore", er.Schedules, len(er.Bugs), er.FirstBugIndex(), start)
	}
	return []*Table{t}, nil
}

func addE11Row(t *Table, prog, method string, runs, bugs, first int, start time.Time) {
	firstCell := "-"
	if first >= 1 {
		firstCell = itoa(first)
	}
	t.AddRow(prog, method, itoa(runs), itoa(bugs), firstCell, i64(int64(time.Since(start)/time.Millisecond)))
}
