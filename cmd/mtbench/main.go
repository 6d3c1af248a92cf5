// Command mtbench is the benchmark's push-button entry point: list the
// program repository, run a single program under a chosen tool, or run
// the prepared experiments (F1, E1..E13) and print their evaluation
// report.
//
// Usage:
//
//	mtbench list
//	mtbench show -prog account
//	mtbench run -prog account -strategy noise -p 0.4 -runs 50
//	mtbench experiments             # run everything (slow)
//	mtbench experiment -id E1       # one experiment
//	mtbench experiment -id E2 -csv  # machine-readable output (CSV)
//	mtbench experiment -id E11 -json # machine-readable output (JSON)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mtbench/internal/core"
	"mtbench/internal/experiment"
	"mtbench/internal/report"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
	"mtbench/internal/strategies"

	// Generated instrumented packages register themselves on import.
	_ "mtbench/internal/genprog"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list", "-list":
		err = list()
	case "show":
		err = show(os.Args[2:])
	case "run":
		err = run(os.Args[2:])
	case "experiment":
		err = runExperiment(os.Args[2:])
	case "experiments":
		err = runAll(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mtbench: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `mtbench — benchmark and framework for multi-threaded testing tools

commands:
  list                            list the program repository
  show -prog NAME                 print a program's bug documentation
  run  -prog NAME [flags]         run a program repeatedly under a tool
  experiment -id ID [-csv|-json]  run one prepared experiment (F1, E1..E13)
  experiments [-csv|-json]        run every prepared experiment
`)
}

func list() error {
	fmt.Printf("%-18s %-20s %-8s %s\n", "NAME", "KIND", "THREADS", "SYNOPSIS")
	for _, p := range repository.All() {
		fmt.Printf("%-18s %-20s %-8d %s\n", p.Name, p.Kind, p.Threads, p.Synopsis)
	}
	return nil
}

func show(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	name := fs.String("prog", "", "program name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := repository.Get(*name)
	if err != nil {
		return err
	}
	fmt.Printf("%s — %s\nkind: %s\nthreads: %d\ndefaults: %v\nbug vars: %v\n\n%s\n",
		p.Name, p.Synopsis, p.Kind, p.Threads, p.Defaults, p.BugVars, p.Doc)
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("prog", "account", "program name")
	strategy := fs.String("strategy", "noise", strategies.Usage())
	p := fs.Float64("p", 0.4, "noise probability (strategy=noise)")
	kind := fs.String("kind", "yield", "noise kind: yield | sleep | mixed")
	runs := fs.Int("runs", 50, "number of seeded runs")
	verbose := fs.Bool("v", false, "print each run's result")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs <= 0 {
		return fmt.Errorf("-runs must be positive, got %d", *runs)
	}
	prog, err := repository.Get(*name)
	if err != nil {
		return err
	}
	body := prog.BodyWith(nil)

	tool, err := strategies.New(*strategy, strategies.Params{P: *p, Kind: *kind})
	if err != nil {
		return err
	}

	verdicts := map[string]int{}
	cfg := sched.Config{Name: prog.Name, MaxSteps: 1_000_000, Plan: prog.Plan}
	// No hook fails and nothing cancels, so Loop cannot fail.
	lr, _ := sched.Loop(context.Background(), *runs, cfg, body, func(i int, cfg *sched.Config) error {
		cfg.Seed = int64(i)
		cfg.Strategy = tool(cfg.Seed)
		return nil
	}, func(i int, res *core.Result) error {
		verdicts[res.Verdict.String()]++
		if res.Verdict.Bug() && *verbose {
			fmt.Printf("seed %d: %v\n", i, res)
		}
		return nil
	})
	fmt.Printf("program %s under %s: %d/%d runs exposed the bug (%.1f%%)\n",
		prog.Name, *strategy, lr.Detected, *runs, 100*float64(lr.Detected)/float64(*runs))
	fmt.Printf("verdicts: %v\n", verdicts)
	return nil
}

func renderTables(tables []*experiment.Table, csv, json bool) error {
	// JSON is one array per invocation, so collectors parse a single
	// document even when an experiment returns several tables.
	return report.WriteTables(os.Stdout, tables, csv, json)
}

func runExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	id := fs.String("id", "", "experiment id (F1, E1..E13)")
	csv := fs.Bool("csv", false, "CSV output")
	json := fs.Bool("json", false, "JSON output (one array of tables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r, err := experiment.Get(*id)
	if err != nil {
		return err
	}
	tables, err := r.Run()
	if err != nil {
		return err
	}
	return renderTables(tables, *csv, *json)
}

func runAll(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	csv := fs.Bool("csv", false, "CSV output")
	json := fs.Bool("json", false, "JSON output (one array with every experiment's tables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// JSON aggregates across experiments so stdout stays one parseable
	// document; text and CSV stream per experiment as before.
	var all []*experiment.Table
	for _, r := range experiment.Runners() {
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", r.ID, r.Title)
		tables, err := r.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		if *json {
			all = append(all, tables...)
			continue
		}
		if err := renderTables(tables, *csv, false); err != nil {
			return err
		}
	}
	if *json {
		return experiment.JSONAll(os.Stdout, all)
	}
	return nil
}
