package campaign

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/noise"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// heuristicFinders mirrors the finders built with heuristic(...) in
// finderTable; TestHeuristicFindersReuseMatchesFresh checks the mirror
// is complete.
var heuristicFinders = map[string]func() noise.Heuristic{
	"noise-none":        noise.None,
	"noise-sharedvar":   func() noise.Heuristic { return noise.SharedVarNoise(0.4) },
	"noise-sync":        func() noise.Heuristic { return noise.SyncNoise(0.4) },
	"noise-statistical": func() noise.Heuristic { return noise.NewStatistical(0.6, 0.7) },
	"noise-covdirected": func() noise.Heuristic { return noise.NewCoverageDirected(0.8) },
}

// TestHeuristicFindersReuseMatchesFresh pins in-place reuse for the
// noise-heuristic finders: over every repository program and 50 seeds,
// the finder's factory, reseeding one strategy run after run, records
// the same schedules and verdicts as a strategy built afresh per seed
// over its own instance of the heuristic (the learning heuristics see
// the same runs either way).
func TestHeuristicFindersReuseMatchesFresh(t *testing.T) {
	for name := range finderTable {
		// Every other noise-* finder comes from the strategies table,
		// whose reuse TestReusedFactoryMatchesFresh pins.
		tabled := name == "noise-yield-0.1" || name == "noise-sleep-0.4"
		if _, ok := heuristicFinders[name]; strings.HasPrefix(name, "noise-") && !tabled && !ok {
			t.Errorf("finder %s is not mirrored in heuristicFinders", name)
		}
	}
	r := sched.NewRunner()
	defer r.Close()
	record := func(prog *repository.Program, st sched.Strategy, seed int64) (core.Verdict, string, []core.ThreadID) {
		res := r.Start(sched.Config{Strategy: st, Seed: seed, Name: prog.Name, MaxSteps: 100_000,
			Plan: prog.Plan, RecordSchedule: true}, prog.BodyWith(nil))
		return res.Verdict, res.Outcome, slices.Clone(res.Schedule)
	}
	for name, newH := range heuristicFinders {
		for _, prog := range repository.All() {
			reused := heuristic(newH)()
			h := newH()
			for i := int64(0); i < 50; i++ {
				seed := mix(1, i)
				wv, wo, ws := record(prog, noise.NewStrategy(nil, h, seed), seed)
				gv, gotOut, gs := record(prog, reused(seed), seed)
				if gv != wv || gotOut != wo || !reflect.DeepEqual(gs, ws) {
					t.Fatalf("%s on %s, run %d: reused factory ran %v %q (%d decisions), fresh %v %q (%d decisions)",
						name, prog.Name, i, gv, gotOut, len(gs), wv, wo, len(ws))
				}
			}
		}
	}
}
