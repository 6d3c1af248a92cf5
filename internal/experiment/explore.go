package experiment

import (
	"mtbench/internal/explore"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// E5 — systematic state-space exploration (§2.2), compared against
// random search, with the preemption-bound and sleep-set ablations
// DESIGN.md calls out.

// ExploreConfig parameterizes E5.
type ExploreConfig struct {
	// Programs run at their explorable size (repository.Program.
	// Explorable): exploration needs small instances; that is its
	// nature.
	Programs     []string
	MaxSchedules int
	RandomSeeds  int
	// Workers is the exploration worker-pool size (0 = 1). The table
	// reports schedules-to-first-bug, which is only deterministic for
	// a single worker, so E5 defaults to serial; raise it to measure
	// wall-clock speedups on large instances instead.
	Workers int
}

// Explore runs E5: first-bug indices and explored-tree sizes for DFS
// variants (bounding, sleep sets, DPOR, state caching) versus random
// search.
func Explore(cfg ExploreConfig) ([]*Table, error) {
	if len(cfg.Programs) == 0 {
		cfg.Programs = []string{"account", "statmax", "inversion", "philosophers", "lostnotify"}
	}
	if cfg.MaxSchedules <= 0 {
		cfg.MaxSchedules = 30000
	}
	if cfg.RandomSeeds <= 0 {
		cfg.RandomSeeds = 30000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}

	t := &Table{
		ID:      "E5",
		Title:   "systematic exploration vs random search (first bug + tree size)",
		Columns: []string{"program", "method", "first_bug", "schedules", "exhausted", "pruned", "cache_hits"},
	}
	t.Note("first_bug = 1-based index of the first erroneous schedule; '-' = not found within budget")
	t.Note("each DFS variant explores its whole (bounded) tree, so schedules compares search-space sizes; the first-bug index is unaffected")
	t.Note("random = fresh seeded random scheduler per run (the noise-testing extreme)")
	t.Note("pruned = options cut by sleep sets + DPOR backtrack sets; cache_hits = subtrees cut by the canonical-state cache")

	methods := []struct {
		name string
		opts func() explore.Options
	}{
		{"dfs", func() explore.Options {
			return explore.Options{MaxSchedules: cfg.MaxSchedules, Workers: cfg.Workers}
		}},
		{"dfs-bound1", func() explore.Options {
			return explore.Options{MaxSchedules: cfg.MaxSchedules, Workers: cfg.Workers, PreemptionBound: explore.Bound(1)}
		}},
		{"dfs-bound2", func() explore.Options {
			return explore.Options{MaxSchedules: cfg.MaxSchedules, Workers: cfg.Workers, PreemptionBound: explore.Bound(2)}
		}},
		{"dfs-sleepsets", func() explore.Options {
			return explore.Options{MaxSchedules: cfg.MaxSchedules, Workers: cfg.Workers, SleepSets: true}
		}},
		{"dfs-por", func() explore.Options {
			return explore.Options{MaxSchedules: cfg.MaxSchedules, Workers: cfg.Workers, DPOR: true}
		}},
		{"dfs-por-cache", func() explore.Options {
			return explore.Options{MaxSchedules: cfg.MaxSchedules, Workers: cfg.Workers, DPOR: true, StateCache: true}
		}},
		{"dfs-timeouts", func() explore.Options {
			return explore.Options{MaxSchedules: cfg.MaxSchedules, Workers: cfg.Workers, ExploreTimeouts: true, PreemptionBound: explore.Bound(2)}
		}},
	}

	for _, name := range cfg.Programs {
		prog, err := repository.Get(name)
		if err != nil {
			return nil, err
		}
		body := prog.BodyWith(prog.Explorable)

		for _, m := range methods {
			res := explore.Explore(m.opts(), body)
			if res.Err != nil {
				return nil, res.Err
			}
			first := "-"
			if idx := res.FirstBugIndex(); idx >= 1 {
				first = itoa(idx)
			}
			exhausted := "no"
			if res.Exhausted {
				exhausted = "yes"
			}
			t.AddRow(name, m.name, first, itoa(res.Schedules), exhausted,
				itoa(res.Stats.SleepPruned+res.Stats.PORPruned), itoa(res.Stats.StateHits))
		}

		// Random search baseline: independent seeds until first bug.
		first := "-"
		for seed := int64(0); seed < int64(cfg.RandomSeeds); seed++ {
			res := sched.Run(sched.Config{Strategy: sched.Random(seed), MaxSteps: 200_000}, body)
			if res.Verdict.Bug() {
				first = itoa(int(seed) + 1)
				break
			}
		}
		t.AddRow(name, "random", first, first, "-", "-", "-")
	}
	return []*Table{t}, nil
}
