package experiment

import (
	"fmt"

	"mtbench/internal/campaign"
)

// E1 — noise-maker comparison (§2.2: "Two noise makers can be compared
// to each other with regard to the performance overhead and the
// likelihood of uncovering bugs").

// NoiseConfig parameterizes E1.
type NoiseConfig struct {
	Programs []string // default: DefaultNoisePrograms
	// Budget is the number of runs per (program, noise maker) cell
	// (0 = campaign.DefaultBudget).
	Budget int
}

// DefaultNoisePrograms is the E1 program spread: races, atomicity,
// deadlock, notify and timing bugs plus a correct control.
var DefaultNoisePrograms = []string{
	"account", "checkthenact", "philosophers", "workqueue",
	"sleepsync", "lostnotify", "lockedcounter",
}

// noiseFinders are E1's noise makers, in row order: the deterministic
// baseline, random dispatch alone, then the heuristics (noise is the
// yield-0.4 one).
var noiseFinders = []string{
	"baseline", "noise-none", "noise-yield-0.1", "noise", "noise-sleep-0.4",
	"noise-sharedvar", "noise-sync", "noise-statistical", "noise-covdirected",
}

// Noise runs E1 and returns its table: per program × noise maker, the
// bug-detection rate, mean schedule length and mean run time. The
// baseline row per program is the deterministic run-to-block
// scheduler — the paper's unit-test scheduler that misses everything.
func Noise(cfg NoiseConfig) ([]*Table, error) {
	if len(cfg.Programs) == 0 {
		cfg.Programs = DefaultNoisePrograms
	}

	t := &Table{
		ID:    "E1",
		Title: "noise makers: detection probability and overhead",
	}
	t.Note("baseline = deterministic run-to-block scheduler (no noise, no dispatch randomness)")
	t.Note("every noise-* maker and noise (yield, p=0.4) runs over random-dispatch run-to-block (the live-scheduler model); full-size programs")
	t.Note("detected = runs with a bug verdict; us_per_run = the cell's wall time over its runs")
	t.Note("computed from campaign records (campaign.Run, in-memory store, one cell at a time)")

	perRun := func(name string, v func(campaign.Record) int64) column {
		return column{name, func(r campaign.Record) string { return i64(v(r) / int64(r.Runs)) }}
	}
	return finderTable(t, "finder", campaign.Config{
		Finders:  noiseFinders,
		Programs: cfg.Programs,
		Budget:   cfg.Budget,
		Params:   map[string]map[string]int{},
		Timing:   true,
	},
		counterCol("detected", i64),
		column{"rate", func(r campaign.Record) string { return pct(int(r.Counters["detected"]), r.Runs) }},
		perRun("avg_steps", func(r campaign.Record) int64 { return r.Counters["steps"] }),
		column{"us_per_run", func(r campaign.Record) string { return fmt.Sprintf("%.1f", r.WallMS*1000/float64(r.Runs)) }},
	)
}
