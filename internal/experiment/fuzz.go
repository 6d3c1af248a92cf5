package experiment

import (
	"strconv"

	"mtbench/internal/campaign"
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
	// Programs run at their explorable size (repository.Program.
	// Explorable), so all three methods face identical instances.
	Programs []string
	// Budget is the number of runs/schedules every method may spend per
	// program (0 = 2000).
	Budget int
	// Seed is the master seed of the fuzz and noise cells.
	Seed int64
}

// DefaultFuzzPrograms is the E11 spread: the exploration experiment's
// classics plus the scenario-diversity additions the existing tools
// were not tuned on.
var DefaultFuzzPrograms = []string{
	"account", "bankwithdraw", "statmax", "philosophers",
	"abastack", "semleak", "rwupgrade", "waitholdinglock",
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

	t := &Table{
		ID:    "E11",
		Title: "schedule fuzzing vs noise vs systematic exploration (shared run budget)",
	}
	t.Note("every method spends at most %d runs per program; first_bug = 1-based run index, '-' = not found", cfg.Budget)
	t.Note("fuzz = coverage-guided schedule mutation (internal/fuzz); noise = yield-noise over random dispatch, a fresh derived seed per run; explore = serial DFS")
	t.Note("bugs = distinct failures by signature (core.BugSignature)")
	t.Note("computed from campaign records (campaign.Run, in-memory store, one cell at a time); wall_ms = the cell's wall time")

	return finderTable(t, "method", campaign.Config{
		Finders:  []string{"fuzz", "noise", "explore"},
		Programs: cfg.Programs,
		Seeds:    []int64{cfg.Seed},
		Budget:   cfg.Budget,
		Timing:   true,
	}, runsCol, bugsCol, firstBugCol, column{"wall_ms", func(r campaign.Record) string { return strconv.FormatFloat(r.WallMS, 'f', -1, 64) }})
}
