// Command pct runs probabilistic concurrency testing over a repository
// program: random thread priorities, d−1 random priority-change points
// per run, and a per-run lower bound on the probability of hitting any
// bug of depth d (see internal/pct). Failing schedules are saved as
// replayable scenario files, the same record-everything discipline as
// cmd/explore and cmd/fuzz.
//
// Usage:
//
//	pct -prog account -runs 500 -seed 1
//	pct -prog account -runs 200 -seed 1 -json      # machine-readable (CI smoke)
//	pct -prog philosophers -depth 2 -first=false
//	pct -prog philosophers -save scenario.json
//	pct -prog philosophers -replay scenario.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mtbench/internal/core"
	"mtbench/internal/pct"
	"mtbench/internal/repository"
	"mtbench/internal/searchcli"

	// Generated instrumented packages register themselves on import.
	_ "mtbench/internal/genprog"
)

func main() {
	cli, search := command(flag.CommandLine)
	flag.Parse()
	cli.Main("pct", search)
}

// jsonReport fixes the machine-readable serialization CI's
// bounded-smoke step asserts on; field names are pinned independently
// of the pct package's Go structs.
type jsonReport struct {
	Program        string              `json:"program"`
	Seed           int64               `json:"seed"`
	Depth          int                 `json:"depth"`
	Runs           int                 `json:"runs"`
	FirstBug       *int                `json:"first_bug"` // null = no bug found
	Bugs           []searchcli.JSONBug `json:"bugs"`
	EstimatedSteps int64               `json:"estimated_steps"`
	MaxThreads     int                 `json:"max_threads"`
}

// command registers pct's flags on fs and returns the shared flags and
// the search to run once fs is parsed.
func command(fs *flag.FlagSet) (*searchcli.Flags, searchcli.Search) {
	cli := searchcli.Register(fs, "account")
	runs := fs.Int("runs", 500, "run budget")
	seed := fs.Int64("seed", 0, "master seed (a fixed seed reproduces the campaign)")
	depth := fs.Int("depth", 0, "targeted bug depth d: d-1 priority-change points per run (0 = default)")

	return cli, func(prog *repository.Program, body func(core.T)) error {
		res := pct.Run(pct.Options{
			MaxRuns:        *runs,
			Seed:           *seed,
			Depth:          *depth,
			StopAtFirstBug: cli.First,
			Name:           cli.Prog,
			Plan:           prog.Plan,
		}, body)
		if err := report(cli, *seed, *depth, res); err != nil {
			return err
		}
		// A first-bug hunt that found nothing exits non-zero, so
		// campaign scripts (and CI's bounded smoke) detect a dead
		// search, not just a crashed one.
		if len(res.Bugs) == 0 {
			if cli.First {
				return fmt.Errorf("no bug found within %d runs", res.Runs)
			}
			return nil
		}
		return cli.SaveScenario("pct", *seed, res.Bugs[0].Schedule)
	}
}

// report prints the campaign result as text or, under -json, as one
// jsonReport document.
func report(cli *searchcli.Flags, seed int64, depth int, res *pct.Result) error {
	if cli.JSON {
		rep := jsonReport{
			Program:        cli.Prog,
			Seed:           seed,
			Depth:          depth,
			Runs:           res.Runs,
			Bugs:           searchcli.JSONBugs(&res.BugLog),
			EstimatedSteps: res.EstimatedSteps,
			MaxThreads:     res.MaxThreads,
		}
		if first := res.FirstBugIndex(); first >= 1 {
			rep.FirstBug = &first
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	fmt.Printf("runs executed: %d (estimated steps k=%d, max threads n=%d)\n",
		res.Runs, res.EstimatedSteps, res.MaxThreads)
	fmt.Printf("bugs found: %d\n", len(res.Bugs))
	for _, b := range res.Bugs {
		fmt.Printf("  run #%d: %v\n", b.Index, b.Result)
	}
	return nil
}
