package experiment

import (
	"fmt"

	"mtbench/internal/multiout"
	"mtbench/internal/noise"
	pctpkg "mtbench/internal/pct"
	"mtbench/internal/sched"
)

// E7 — the no-input, many-outcomes benchmark program (§4 component 4:
// "tools such as noise makers can be compared as to the distribution
// of their results").

// MultioutConfig parameterizes E7.
type MultioutConfig struct {
	Runs int
}

// Multiout runs E7: outcome distributions per scheduling tool.
func Multiout(cfg MultioutConfig) ([]*Table, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 100
	}
	body := multiout.Body()

	t := &Table{
		ID:      "E7",
		Title:   "multi-outcome benchmark: outcome distribution per tool",
		Columns: []string{"tool", "runs", "distinct", "entropy_bits", "top_share"},
	}
	t.Note("higher entropy = the tool spreads executions over more interleaving classes")

	tools := []struct {
		name string
		mk   func(seed int64) sched.Strategy
	}{
		{"deterministic", func(seed int64) sched.Strategy { return sched.Nonpreemptive() }},
		{"dispatch-random", func(seed int64) sched.Strategy { return sched.RandomWhenBlocked(seed) }},
		{"noise-yield-0.1", func(seed int64) sched.Strategy {
			return noise.NewStrategy(nil, noise.NewBernoulli(0.1, noise.KindYield), seed)
		}},
		{"noise-yield-0.4", func(seed int64) sched.Strategy {
			return noise.NewStrategy(nil, noise.NewBernoulli(0.4, noise.KindYield), seed)
		}},
		{"random", func(seed int64) sched.Strategy { return sched.Random(seed) }},
		{"pct-d3", func(seed int64) sched.Strategy { return pctpkg.NewStrategy(seed, 3, 2000) }},
	}

	for _, tool := range tools {
		dist := multiout.Distribution{}
		for seed := int64(0); seed < int64(cfg.Runs); seed++ {
			dist.Add(sched.Run(sched.Config{Strategy: tool.mk(seed)}, body))
		}
		top := 0
		for _, c := range dist {
			if c > top {
				top = c
			}
		}
		t.AddRow(tool.name, itoa(cfg.Runs), itoa(dist.Distinct()),
			fmt.Sprintf("%.2f", dist.Entropy()), pct(top, cfg.Runs))
	}
	return []*Table{t}, nil
}
