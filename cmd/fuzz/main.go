// Command fuzz runs coverage-guided schedule fuzzing over a repository
// program: mutate interesting decision logs, execute them under the
// controlled scheduler, keep what covers new concurrency tasks, and
// save failing schedules as replayable scenario files — the same
// record-everything discipline as cmd/explore, with a greybox search
// in place of the exhaustive one.
//
// Usage:
//
//	fuzz -prog account -runs 2000 -seed 1
//	fuzz -prog account -runs 200 -seed 1 -json   # machine-readable (CI smoke)
//	fuzz -prog account -params depositors=2,deposits=1 -runs 200 -seed 1 -json
//	fuzz -prog abastack -runs 5000 -workers 4 -first=false
//	fuzz -prog philosophers -pbound 2 -save scenario.json
//	fuzz -prog philosophers -replay scenario.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"mtbench/internal/core"
	"mtbench/internal/fuzz"
	"mtbench/internal/repository"
	"mtbench/internal/searchcli"

	// Generated instrumented packages register themselves on import.
	_ "mtbench/internal/genprog"
)

func main() {
	cli, search := command(flag.CommandLine)
	flag.Parse()
	cli.Main("fuzz", search)
}

// jsonReport fixes the machine-readable serialization CI's fuzz-smoke
// step asserts on; field names are pinned independently of the fuzz
// package's Go structs.
type jsonReport struct {
	Program      string              `json:"program"`
	Seed         int64               `json:"seed"`
	Runs         int                 `json:"runs"`
	FirstBug     *int                `json:"first_bug"` // null = no bug found
	Bugs         []searchcli.JSONBug `json:"bugs"`
	CorpusSize   int                 `json:"corpus"`
	Coverage     int                 `json:"coverage"`
	CoverageRuns int                 `json:"coverage_runs"`
	Repairs      int64               `json:"repairs"`
	Ops          map[string]int      `json:"ops"`
}

// command registers fuzz's flags on fs and returns the shared flags and
// the search to run once fs is parsed.
func command(fs *flag.FlagSet) (*searchcli.Flags, searchcli.Search) {
	cli := searchcli.Register(fs, "account")
	runs := fs.Int("runs", 2000, "run budget")
	workers := fs.Int("workers", 1, "parallel fuzz workers (1 = deterministic)")
	seed := fs.Int64("seed", 0, "master seed (fixed seed + 1 worker reproduces the campaign)")
	pbound := fs.Int("pbound", -1, "preemption bound for the bounding mutator (-1 = draw 0..2 per mutation)")

	return cli, func(prog *repository.Program, body func(core.T)) error {
		opts := fuzz.Options{
			MaxRuns:        *runs,
			Seed:           *seed,
			Workers:        *workers,
			StopAtFirstBug: cli.First,
			Name:           cli.Prog,
			Plan:           prog.Plan,
		}
		if *pbound >= 0 {
			opts.PreemptionBound = fuzz.Bound(*pbound)
		}
		res := fuzz.Fuzz(opts, body)
		if err := report(cli, *seed, res); err != nil {
			return err
		}
		// A first-bug hunt that found nothing exits non-zero, so
		// campaign scripts (and CI's fuzz smoke) detect a dead search,
		// not just a crashed one.
		if len(res.Bugs) == 0 {
			if cli.First {
				return fmt.Errorf("no bug found within %d runs", res.Runs)
			}
			return nil
		}
		return cli.SaveScenario("fuzz-guided", *seed, res.Bugs[0].Schedule)
	}
}

// report prints the campaign result as text or, under -json, as one
// jsonReport document.
func report(cli *searchcli.Flags, seed int64, res *fuzz.Result) error {
	if cli.JSON {
		rep := jsonReport{
			Program:      cli.Prog,
			Seed:         seed,
			Runs:         res.Runs,
			Bugs:         searchcli.JSONBugs(&res.BugLog),
			CorpusSize:   res.CorpusSize,
			Coverage:     res.Coverage,
			CoverageRuns: res.CoverageRuns,
			Repairs:      res.Repairs,
			Ops:          res.Ops,
		}
		if first := res.FirstBugIndex(); first >= 1 {
			rep.FirstBug = &first
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	fmt.Printf("runs executed: %d (corpus=%d, coverage tasks=%d, coverage-adding runs=%d, repaired decisions=%d)\n",
		res.Runs, res.CorpusSize, res.Coverage, res.CoverageRuns, res.Repairs)
	ops := make([]string, 0, len(res.Ops))
	for op := range res.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Print("runs by operator:")
	for _, op := range ops {
		fmt.Printf(" %s=%d", op, res.Ops[op])
	}
	fmt.Println()
	fmt.Printf("bugs found: %d\n", len(res.Bugs))
	for _, b := range res.Bugs {
		fmt.Printf("  run #%d: %v\n", b.Index, b.Result)
	}
	return nil
}
