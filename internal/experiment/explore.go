package experiment

import "mtbench/internal/campaign"

// E5 — systematic state-space exploration (§2.2), compared against
// random search, with the preemption-bound, sleep-set, DPOR and
// state-cache ablations DESIGN.md calls out.

// ExploreConfig parameterizes E5.
type ExploreConfig struct {
	// Programs run at their explorable size (repository.Program.
	// Explorable): exploration needs small instances; that is its
	// nature.
	Programs []string
	// Budget is the schedules (or random runs) each method may spend
	// per program (0 = 30000).
	Budget int
}

// exploreFinders are E5's methods, in row order.
var exploreFinders = []string{
	"explore", "explore-pb1", "explore-pb", "explore-sleep",
	"explore-dpor", "explore-por", "explore-timeouts", "random",
}

// Explore runs E5: first-bug indices and explored-tree sizes for DFS
// variants (bounding, sleep sets, DPOR, state caching) versus random
// search.
func Explore(cfg ExploreConfig) ([]*Table, error) {
	if len(cfg.Programs) == 0 {
		cfg.Programs = []string{"account", "statmax", "inversion", "philosophers", "lostnotify"}
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 30000
	}

	t := &Table{
		ID:    "E5",
		Title: "systematic exploration vs random search (first bug + tree size)",
	}
	t.Note("first_bug = 1-based index of the first erroneous schedule or run; '-' = not found within %d", cfg.Budget)
	t.Note("each explore variant explores its whole (bounded) tree, so runs compares search-space sizes; explore-pb1/explore-pb bound preemptions at 1/2, explore-timeouts also expires timed waits")
	t.Note("random = a fresh random scheduler per run, seeded from the cell seed and run index (the noise-testing extreme); it spends the whole budget")
	t.Note("pruned = options cut by sleep sets + DPOR backtrack sets; cache_hits = subtrees cut by the canonical-state cache; '-' = the method has neither")
	t.Note("computed from campaign records (campaign.Run, in-memory store, one cell at a time)")

	return finderTable(t, "method", campaign.Config{
		Finders:  exploreFinders,
		Programs: cfg.Programs,
		Budget:   cfg.Budget,
	}, firstBugCol, runsCol, counterCol("exhausted", yesNo), counterCol("pruned", i64), counterCol("cache_hits", i64))
}
