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
//	explore -prog philosophers -por -statecache -snapshots -stats
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
	"sort"
	"strconv"
	"strings"

	"mtbench/internal/core"
	"mtbench/internal/explore"
	"mtbench/internal/profiling"
	"mtbench/internal/replay"
	"mtbench/internal/repository"
	"mtbench/internal/sched"

	// Generated instrumented packages register themselves on import.
	_ "mtbench/internal/genprog"
)

func main() {
	prog := flag.String("prog", "statmax", "program to explore")
	params := flag.String("params", "", "program parameter overrides, k=v comma-separated (e.g. depositors=2,deposits=1)")
	max := flag.Int("max", 50000, "maximum schedules")
	bound := flag.Int("bound", -1, "preemption bound (-1 = unbounded)")
	vbound := flag.Int("vbound", -1, "variable bound: distinct objects involved in context switches (-1 = unbounded)")
	tbound := flag.Int("tbound", -1, "thread bound: distinct threads eligible for preemption (-1 = unbounded)")
	sleepSets := flag.Bool("sleepsets", false, "enable sleep-set pruning")
	por := flag.Bool("por", false, "enable dynamic partial-order reduction (implies -sleepsets)")
	stateCache := flag.Bool("statecache", false, "enable canonical-state caching")
	cacheSize := flag.Int("statecachesize", 0, "state-cache entries per worker (0 = default)")
	snapshots := flag.Bool("snapshots", false, "position each schedule from the deepest branch snapshot instead of replaying from the root (needs -statecache)")
	timeouts := flag.Bool("timeouts", false, "explore timer expirations too")
	stopFirst := flag.Bool("first", true, "stop at first bug")
	workers := flag.Int("workers", 0, "parallel search workers (0 = all cores, 1 = deterministic serial)")
	stats := flag.Bool("stats", false, "print reduction statistics (pruned options, backtracks, cache hits)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON result on stdout")
	save := flag.String("save", "", "save the first failing scenario to this file")
	replayPath := flag.String("replay", "", "replay a saved scenario instead of exploring")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	list := flag.Bool("list", false, "list the registered programs and exit")
	flag.Parse()

	if *list {
		listPrograms()
		return
	}
	if *snapshots && !*stateCache {
		fmt.Fprintln(os.Stderr, "explore: -snapshots needs -statecache")
		flag.Usage()
		os.Exit(2)
	}
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(1)
	}
	err = run(cliConfig{
		prog: *prog, params: *params, max: *max, bound: *bound, vbound: *vbound, tbound: *tbound, workers: *workers,
		sleepSets: *sleepSets, por: *por, stateCache: *stateCache, cacheSize: *cacheSize,
		snapshots: *snapshots,
		timeouts:  *timeouts, stopFirst: *stopFirst, stats: *stats, jsonOut: *jsonOut,
		save: *save, replayPath: *replayPath,
		profiled: *cpuProfile != "",
	})
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(1)
	}
}

// listPrograms prints every registered program — including ones the
// rewrite pipeline registered through repository.Register — one per
// line, so scripts can discover instrumented packages by name.
func listPrograms() {
	for _, p := range repository.All() {
		fmt.Printf("%-18s %-20s %s\n", p.Name, p.Kind, p.Synopsis)
	}
}

type cliConfig struct {
	prog, params        string
	max, bound, workers int
	vbound, tbound      int
	sleepSets, por      bool
	stateCache          bool
	cacheSize           int
	snapshots           bool
	timeouts, stopFirst bool
	stats, jsonOut      bool
	save, replayPath    string
	// profiled turns on pprof phase labels: when a CPU profile is being
	// collected the driver tags its samples with the phase vocabulary
	// documented in DESIGN.md (position/drive/record).
	profiled bool
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

// parseParams parses "k=v,k=v" overrides.
func parseParams(s string) (repository.Params, error) {
	if s == "" {
		return nil, nil
	}
	out := repository.Params{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad -params entry %q (want k=v)", kv)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("bad -params value %q: %v", kv, err)
		}
		out[k] = n
	}
	return out, nil
}

func run(cfg cliConfig) error {
	prog, err := repository.Get(cfg.prog)
	if err != nil {
		return err
	}
	over, err := parseParams(cfg.params)
	if err != nil {
		return err
	}
	body := prog.BodyWith(over)

	if cfg.replayPath != "" {
		s, err := replay.LoadFile(cfg.replayPath)
		if err != nil {
			return err
		}
		res := replay.ReplayControlled(s, sched.Config{Name: cfg.prog}, body)
		if cfg.jsonOut {
			out := struct {
				Program   string `json:"program"`
				Decisions int    `json:"decisions"`
				Verdict   string `json:"verdict"`
				Bug       string `json:"bug,omitempty"`
			}{Program: cfg.prog, Decisions: len(s.Decisions), Verdict: res.Verdict.String()}
			if res.Verdict.Bug() {
				out.Bug = core.BugSignature(res)
			}
			return json.NewEncoder(os.Stdout).Encode(out)
		}
		fmt.Printf("replayed scenario (%d decisions): %v\n", len(s.Decisions), res)
		return nil
	}

	opts := explore.Options{
		MaxSchedules:    cfg.max,
		SleepSets:       cfg.sleepSets,
		DPOR:            cfg.por,
		StateCache:      cfg.stateCache,
		StateCacheSize:  cfg.cacheSize,
		Snapshots:       cfg.snapshots,
		ExploreTimeouts: cfg.timeouts,
		StopAtFirstBug:  cfg.stopFirst,
		Workers:         cfg.workers,
		ProfileLabels:   cfg.profiled,
		Name:            cfg.prog,
		Plan:            prog.Plan,
	}
	if cfg.bound >= 0 {
		opts.PreemptionBound = explore.Bound(cfg.bound)
	}
	if cfg.vbound >= 0 {
		opts.VariableBound = explore.Bound(cfg.vbound)
	}
	if cfg.tbound >= 0 {
		opts.ThreadBound = explore.Bound(cfg.tbound)
	}
	res := explore.Explore(opts, body)
	if res.Err != nil {
		return res.Err
	}

	if cfg.jsonOut {
		sigs := make([]string, 0, len(res.Bugs))
		for _, b := range res.Bugs {
			sigs = append(sigs, core.BugSignature(b.Result))
		}
		sort.Strings(sigs)
		out := jsonResult{
			Program:   cfg.prog,
			Schedules: res.Schedules,
			Exhausted: res.Exhausted,
			Bugs:      sigs,
			FirstBug:  res.FirstBugIndex(),
			Stats:     res.Stats,
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		fmt.Printf("schedules executed: %d (exhausted=%v)\n", res.Schedules, res.Exhausted)
		fmt.Printf("distinct outcomes: %d\n", len(res.Outcomes))
		fmt.Printf("bugs found: %d\n", len(res.Bugs))
		for _, b := range res.Bugs {
			fmt.Printf("  schedule #%d: %v\n", b.Index, b.Result)
		}
	}
	if cfg.stats && !cfg.jsonOut {
		fmt.Printf("reduction: sleep-pruned=%d por-pruned=%d backtracks=%d cache-hits=%d\n",
			res.Stats.SleepPruned, res.Stats.PORPruned, res.Stats.Backtracks, res.Stats.StateHits)
		fmt.Printf("bounding: vb-pruned=%d tb-pruned=%d\n",
			res.Stats.VBPruned, res.Stats.TBPruned)
		fmt.Printf("replay tax: replayed-steps=%d novel-steps=%d\n",
			res.Stats.ReplayedSteps, res.Stats.NovelSteps)
		fmt.Printf("checkpoints: hits=%d misses=%d restored-steps=%d total-steps=%d\n",
			res.Stats.CheckpointHits, res.Stats.CheckpointMisses,
			res.Stats.RestoredSteps, res.Stats.TotalSteps)
	}
	if cfg.save != "" && len(res.Bugs) > 0 {
		s := &replay.Schedule{
			Program:   cfg.prog,
			Mode:      "controlled",
			Strategy:  "explore-dfs",
			Decisions: append([]core.ThreadID(nil), res.Bugs[0].Schedule...),
		}
		if err := s.SaveFile(cfg.save); err != nil {
			return err
		}
		// In -json mode stdout carries exactly one machine-readable
		// document; human chatter goes to stderr.
		dst := os.Stdout
		if cfg.jsonOut {
			dst = os.Stderr
		}
		fmt.Fprintf(dst, "saved failing scenario to %s (%d decisions)\n", cfg.save, len(s.Decisions))
	}
	return nil
}
