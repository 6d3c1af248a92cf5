package experiment

import (
	"context"
	"fmt"

	"mtbench/internal/core"
	"mtbench/internal/multiout"
	"mtbench/internal/sched"
	"mtbench/internal/strategies"
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
		name, tool string
		params     strategies.Params
	}{
		{"deterministic", "baseline", strategies.Params{}},
		{"dispatch-random", "dispatch", strategies.Params{}},
		{"noise-yield-0.1", "noise", strategies.Params{P: 0.1}},
		{"noise-yield-0.4", "noise", strategies.Params{P: 0.4}},
		{"random", "random", strategies.Params{}},
		{"pct-d3", "pct", strategies.Params{Depth: 3}},
	}

	for _, row := range tools {
		tool, _ := strategies.New(row.tool, row.params) // the rows are valid table entries
		dist := multiout.Distribution{}
		// No hook fails and nothing cancels, so Loop cannot fail.
		_, _ = sched.Loop(context.TODO(), cfg.Runs, sched.Config{}, body, func(i int, c *sched.Config) error {
			c.Strategy = tool(int64(i))
			return nil
		}, func(_ int, res *core.Result) error {
			dist.Add(res)
			return nil
		})
		top := 0
		for _, c := range dist {
			if c > top {
				top = c
			}
		}
		t.AddRow(row.name, itoa(cfg.Runs), itoa(dist.Distinct()),
			fmt.Sprintf("%.2f", dist.Entropy()), pct(top, cfg.Runs))
	}
	return []*Table{t}, nil
}
