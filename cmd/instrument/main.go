// Command instrument drives the source-to-source rewrite pipeline: it
// turns the ordinary Go packages under -src into instrumented packages
// under -out that run on the controlled scheduler and register
// themselves with the program repository.
//
// Usage:
//
//	instrument                 # regenerate internal/genprog from the examples
//	instrument -verify         # fail if the checked-in output drifted
//	instrument -build          # regenerate, then go build the output
//	instrument -run -json      # run the finder suite over each program
//	instrument -list           # list registered programs (generated included)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"

	"mtbench/internal/campaign"
	"mtbench/internal/repository"
	"mtbench/internal/rewrite"
	"mtbench/internal/sched"
	"mtbench/internal/searchcli"

	_ "mtbench/internal/genprog"
)

func main() {
	src := flag.String("src", "internal/rewrite/testdata/src", "root directory of example input packages")
	out := flag.String("out", "internal/genprog", "output directory for instrumented packages")
	verify := flag.Bool("verify", false, "regenerate and fail if the checked-in output differs")
	build := flag.Bool("build", false, "go build the generated packages after rewriting")
	run := flag.Bool("run", false, "run the finder suite over every generated program")
	jsonOut := flag.Bool("json", false, "with -run: emit machine-readable JSON")
	noiseRuns := flag.Int("noise-runs", 500, "with -run: noise runs per program")
	exploreMax := flag.Int("explore-max", 2000, "with -run: explore-por schedule budget per program")
	fuzzRuns := flag.Int("fuzz-runs", 2000, "with -run: fuzz run budget per program")
	list := flag.Bool("list", false, "list the registered programs and exit")
	flag.Parse()

	if *list {
		searchcli.ListPrograms(os.Stdout)
		return
	}

	tree, results, err := rewrite.GenerateTree(*src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "instrument:", err)
		os.Exit(1)
	}

	if *verify {
		drift := rewrite.DiffTree(tree, *out)
		if len(drift) > 0 {
			fmt.Fprintf(os.Stderr, "instrument: %d generated file(s) drifted from %s:\n", len(drift), *src)
			for _, p := range drift {
				fmt.Fprintf(os.Stderr, "  %s\n", p)
			}
			fmt.Fprintln(os.Stderr, "run cmd/instrument to regenerate")
			os.Exit(1)
		}
		fmt.Printf("verified: %d generated files match %s\n", len(tree), *src)
	} else if !*run {
		paths, err := rewrite.WriteTree(tree, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "instrument:", err)
			os.Exit(1)
		}
		for _, p := range paths {
			fmt.Println(p)
		}
	}

	if *build {
		cmd := exec.Command("go", "build", "./"+*out+"/...")
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "instrument: build failed:", err)
			os.Exit(1)
		}
		fmt.Println("build ok")
	}

	if *run {
		budgets := []finderBudget{{"noise", *noiseRuns}, {"explore-por", *exploreMax}, {"fuzz", *fuzzRuns}}
		ok := runSuite(results, budgets, *jsonOut)
		if !ok {
			os.Exit(1)
		}
	}
}

// finderBudget is one campaign finder of the suite and its per-program
// budget.
type finderBudget struct {
	finder string
	budget int
}

// finderReport is one finder's outcome over one program. Field names
// are pinned: the CI instrument-smoke job parses them with jq.
type finderReport struct {
	Finder   string   `json:"finder"`
	Runs     int      `json:"runs"`
	Bugs     []string `json:"bugs"`
	FirstBug int      `json:"first_bug"`
}

// programReport is the per-program suite outcome.
type programReport struct {
	Program string         `json:"program"`
	Kind    string         `json:"kind"`
	Found   bool           `json:"found"`
	Finders []finderReport `json:"finders"`
}

// runSuite runs the planted-bug gauntlet: every generated program must
// fail under at least one finder within the fixed budgets. Each
// (program, finder) pair is one campaign cell at seed 1, so the suite
// runs the registry's finders inside the campaign's panic sandbox.
func runSuite(results []*rewrite.Result, budgets []finderBudget, jsonOut bool) bool {
	// An empty Params map means full-size programs; MaxSteps is the
	// plain scheduler's default bound.
	cfg := campaign.Config{MaxSteps: sched.DefaultMaxSteps, Params: map[string]map[string]int{}}
	var reports []programReport
	allFound := true
	for _, res := range results {
		prog, err := repository.Get(res.Name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "instrument:", err)
			return false
		}
		rep := programReport{Program: prog.Name, Kind: string(prog.Kind)}
		for _, fb := range budgets {
			cell := campaign.Cell{Program: prog.Name, Finder: fb.finder, Seed: 1, Budget: fb.budget}
			rec, err := campaign.ExecCell(context.Background(), cfg, cell)
			if err == nil && rec.Failed() {
				err = fmt.Errorf("%s/%s: %s", prog.Name, fb.finder, rec.Outcome)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "instrument:", err)
				return false
			}
			f := finderReport{Finder: fb.finder, Runs: rec.Runs, FirstBug: rec.FirstBug}
			if len(rec.Bugs) > 0 {
				f.Bugs = rec.Bugs
				rep.Found = true
			}
			rep.Finders = append(rep.Finders, f)
		}
		if prog.HasBug() && !rep.Found {
			allFound = false
		}
		reports = append(reports, rep)
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, rep := range reports {
			if err := enc.Encode(rep); err != nil {
				fmt.Fprintln(os.Stderr, "instrument:", err)
				return false
			}
		}
	} else {
		for _, rep := range reports {
			status := "FOUND"
			if !rep.Found {
				status = "MISSED"
			}
			fmt.Printf("%-14s %-20s %s\n", rep.Program, rep.Kind, status)
			for _, f := range rep.Finders {
				fmt.Printf("  %-12s runs=%-6d first_bug=%-5d bugs=%v\n", f.Finder, f.Runs, f.FirstBug, f.Bugs)
			}
		}
	}
	if !allFound {
		fmt.Fprintln(os.Stderr, "instrument: planted bug(s) not found within budget")
	}
	return allFound
}
