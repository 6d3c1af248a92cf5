package experiment

import "mtbench/internal/campaign"

// E13 — the bounding portfolio under one shared budget: bounded
// systematic search (preemption / variable / thread bounding, after
// Bindal, Bansal and Lal), reduced search (DPOR + state caching),
// greybox fuzzing and PCT all spend the same per-cell budget, so the
// table compares what each regime buys per schedule — the portfolio
// question the campaign matrix gates and this experiment measures.

// BoundingConfig parameterizes E13.
type BoundingConfig struct {
	// Programs run at their explorable size (repository.Program.
	// Explorable), as in the campaign gate, so the regimes face
	// identical instances.
	Programs []string
	// Budget is the shared per-(program, regime) effort: schedules for
	// the explore variants, runs for fuzz and pct (0 = 2000).
	Budget int
	// MaxSteps bounds each run (0 = campaign.DefaultMaxSteps).
	MaxSteps int64
	// Seed drives the randomized regimes (fuzz, pct); the systematic
	// ones ignore it.
	Seed int64
	// VariableBound / ThreadBound / PCTDepth override the regime
	// parameters (0 = the campaign defaults: bounds 2, depth 3).
	VariableBound int
	ThreadBound   int
	PCTDepth      int
}

// boundingFinders are E13's regimes, in row order.
var boundingFinders = []string{"explore", "explore-pb", "explore-vb", "explore-tb", "explore-por", "fuzz", "pct"}

// Bounding runs E13: first-bug indices, budget consumption and bug
// counts for each regime of the portfolio under one shared budget.
func Bounding(cfg BoundingConfig) ([]*Table, error) {
	if len(cfg.Programs) == 0 {
		cfg.Programs = []string{"account", "philosophers", "statmax", "abastack"}
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 2000
	}

	t := &Table{
		ID:    "E13",
		Title: "bounding portfolio: bounded vs reduced vs fuzzed regimes, one shared budget",
	}
	t.Note("every regime spends at most the same budget (schedules or runs); first_bug = 1-based index, '-' = not found")
	t.Note("explore-pb bounds preemptions at 2; explore-vb/explore-tb cut context switches outside a small object/thread set (Bindal et al.); exhausted = the bounded tree was fully explored")
	t.Note("bound_pruned = options cut by the variable/thread bound (vb_pruned + tb_pruned); '-' for regimes without bound counters")
	t.Note("fuzz and pct are randomized under the config seed; pct's per-run hit probability has the documented depth-d lower bound")
	t.Note("computed from campaign records (campaign.Run, in-memory store, one cell at a time)")

	return finderTable(t, "regime", campaign.Config{
		Finders:       boundingFinders,
		Programs:      cfg.Programs,
		Seeds:         []int64{cfg.Seed},
		Budget:        cfg.Budget,
		MaxSteps:      cfg.MaxSteps,
		VariableBound: cfg.VariableBound,
		ThreadBound:   cfg.ThreadBound,
		PCTDepth:      cfg.PCTDepth,
	}, firstBugCol, runsCol, counterCol("exhausted", yesNo), bugsCol, counterCol("bound_pruned", i64))
}
