// Command multiout runs the benchmark's no-input, many-outcomes
// program (§4, component 4) repeatedly under a chosen scheduling tool
// and prints the outcome distribution — the measure on which "tools
// such as noise makers can be compared".
//
// Usage:
//
//	multiout -runs 200 -tool noise -p 0.4
//	multiout -runs 1 -tool baseline -v     # one run, print the raw outcome
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"mtbench/internal/core"
	"mtbench/internal/multiout"
	"mtbench/internal/sched"
	"mtbench/internal/strategies"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "multiout:", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("multiout", flag.ExitOnError)
	runs := fs.Int("runs", 100, "number of runs")
	tool := fs.String("tool", "noise", strategies.Usage())
	p := fs.Float64("p", 0.4, "noise probability")
	verbose := fs.Bool("v", false, "print every run's canonical outcome")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs <= 0 {
		return fmt.Errorf("-runs must be positive, got %d", *runs)
	}

	next, err := strategies.New(*tool, strategies.Params{P: *p})
	if err != nil {
		return err
	}
	body := multiout.Body()
	dist := multiout.Distribution{}
	// No hook fails and nothing cancels, so Loop cannot fail.
	_, _ = sched.Loop(context.Background(), *runs, sched.Config{}, body, func(i int, cfg *sched.Config) error {
		cfg.Seed = int64(i)
		cfg.Strategy = next(cfg.Seed)
		return nil
	}, func(_ int, res *core.Result) error {
		dist.Add(res)
		if *verbose {
			fmt.Println(multiout.Canonical(res))
		}
		return nil
	})

	fmt.Printf("tool=%s runs=%d distinct=%d entropy=%.2f bits\n",
		*tool, dist.Runs(), dist.Distinct(), dist.Entropy())

	type kv struct {
		outcome string
		count   int
	}
	var sorted []kv
	for o, c := range dist {
		sorted = append(sorted, kv{o, c})
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].count != sorted[j].count {
			return sorted[i].count > sorted[j].count
		}
		return sorted[i].outcome < sorted[j].outcome
	})
	for i, e := range sorted {
		if i >= 15 {
			fmt.Printf("... and %d more outcomes\n", len(sorted)-15)
			break
		}
		fmt.Printf("%6.1f%%  %s\n", 100*float64(e.count)/float64(dist.Runs()), e.outcome)
	}
	return nil
}
