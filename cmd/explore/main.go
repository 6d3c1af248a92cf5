// Command explore runs systematic state-space exploration over a
// repository program, saves failing schedules as replayable scenario
// files, and replays saved scenarios (§2.2: "whenever an error is
// detected during state-space exploration, a scenario leading to the
// error state is saved. Scenarios can be executed and replayed").
//
// Usage:
//
//	explore -prog statmax -max 50000
//	explore -prog philosophers -workers 8 -first=false
//	explore -prog philosophers -por -statecache -stats -first=false
//	explore -prog account -params depositors=2,deposits=1 -json
//	explore -prog inversion -bound 2 -save scenario.json
//	explore -prog account -tbound 2 -vbound 2 -first=false
//	explore -prog inversion -replay scenario.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mtbench/internal/core"
	"mtbench/internal/explore"
	"mtbench/internal/repository"
	"mtbench/internal/searchcli"

	// Generated instrumented packages register themselves on import.
	_ "mtbench/internal/genprog"
)

func main() {
	cli, search := command(flag.CommandLine)
	flag.Parse()
	cli.Main("explore", search)
}

// jsonResult is the machine-readable output of -json. Field names are
// pinned: the CI reduction gate parses them with jq.
type jsonResult struct {
	Program   string        `json:"program"`
	Schedules int           `json:"schedules"`
	Exhausted bool          `json:"exhausted"`
	Bugs      []string      `json:"bugs"`
	FirstBug  int           `json:"first_bug"`
	Stats     explore.Stats `json:"stats"`
}

// command registers explore's flags on fs. It returns the shared
// flags and the search to run once fs is parsed.
func command(fs *flag.FlagSet) (*searchcli.Flags, searchcli.Search) {
	cli := searchcli.Register(fs, "statmax")
	max := fs.Int("max", 50000, "maximum schedules")
	bound := fs.Int("bound", -1, "preemption bound (-1 = unbounded)")
	vbound := fs.Int("vbound", -1, "variable bound: distinct objects involved in context switches (-1 = unbounded)")
	tbound := fs.Int("tbound", -1, "thread bound: distinct threads eligible for preemption (-1 = unbounded)")
	sleepSets := fs.Bool("sleepsets", false, "enable sleep-set pruning")
	por := fs.Bool("por", false, "enable dynamic partial-order reduction (implies -sleepsets)")
	stateCache := fs.Bool("statecache", false, "enable canonical-state caching (positioned runs then also restore hasher snapshots)")
	timeouts := fs.Bool("timeouts", false, "explore timer expirations too")
	workers := fs.Int("workers", 0, "parallel search workers (0 = all cores, 1 = deterministic serial)")
	stats := fs.Bool("stats", false, "print reduction statistics (pruned options, backtracks, cache hits)")

	search := func(prog *repository.Program, body func(core.T)) error {
		opts := explore.Options{
			MaxSchedules:    *max,
			SleepSets:       *sleepSets,
			DPOR:            *por,
			StateCache:      *stateCache,
			ExploreTimeouts: *timeouts,
			StopAtFirstBug:  cli.First,
			Workers:         *workers,
			Name:            cli.Prog,
			Plan:            prog.Plan,
		}
		if *bound >= 0 {
			opts.PreemptionBound = explore.Bound(*bound)
		}
		if *vbound >= 0 {
			opts.VariableBound = explore.Bound(*vbound)
		}
		if *tbound >= 0 {
			opts.ThreadBound = explore.Bound(*tbound)
		}
		res := explore.Explore(opts, body)
		if res.Err != nil {
			return res.Err
		}
		if err := report(cli, res, *stats); err != nil {
			return err
		}
		if len(res.Bugs) == 0 {
			return nil
		}
		return cli.SaveScenario("explore-dfs", 0, res.Bugs[0].Schedule)
	}
	return cli, search
}

// report prints the search result as text or, under -json, as one
// jsonResult document.
func report(cli *searchcli.Flags, res *explore.Result, stats bool) error {
	if cli.JSON {
		out := jsonResult{
			Program:   cli.Prog,
			Schedules: res.Schedules,
			Exhausted: res.Exhausted,
			Bugs:      res.Signatures(),
			FirstBug:  res.FirstBugIndex(),
			Stats:     res.Stats,
		}
		return json.NewEncoder(os.Stdout).Encode(out)
	}
	fmt.Printf("schedules executed: %d (exhausted=%v)\n", res.Schedules, res.Exhausted)
	fmt.Printf("distinct outcomes: %d\n", len(res.Outcomes))
	fmt.Printf("bugs found: %d\n", len(res.Bugs))
	for _, b := range res.Bugs {
		fmt.Printf("  schedule #%d: %v\n", b.Index, b.Result)
	}
	if stats {
		fmt.Printf("reduction: sleep-pruned=%d por-pruned=%d backtracks=%d cache-hits=%d\n",
			res.Stats.SleepPruned, res.Stats.PORPruned, res.Stats.Backtracks, res.Stats.StateHits)
		fmt.Printf("bounding: vb-pruned=%d tb-pruned=%d\n",
			res.Stats.VBPruned, res.Stats.TBPruned)
		fmt.Printf("replay tax: replayed-steps=%d novel-steps=%d coasted-steps=%d\n",
			res.Stats.ReplayedSteps, res.Stats.NovelSteps, res.Stats.CoastedSteps)
		fmt.Printf("checkpoints: hits=%d misses=%d restored-steps=%d total-steps=%d\n",
			res.Stats.CheckpointHits, res.Stats.CheckpointMisses,
			res.Stats.RestoredSteps, res.Stats.TotalSteps)
	}
	return nil
}
