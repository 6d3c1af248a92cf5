package experiment

import (
	"context"
	"slices"
	"time"

	"mtbench/internal/core"
	"mtbench/internal/race"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// E2 — race-detector comparison (§2.2: detectors are compared on bugs
// found, false-alarm percentage, and overhead; "the main problem of
// race detectors of all breeds is that they produce too many false
// alarms", and "the ability to detect user implemented synchronization
// is different").

// RaceConfig parameterizes E2.
type RaceConfig struct {
	// Programs to analyze (default: all race-kind programs plus every
	// correct program as false-alarm bait).
	Programs []string
	// Runs per program (different seeds; warnings accumulate).
	Runs int
}

// NamedDetector pairs a name with a fresh-detector factory.
type NamedDetector struct {
	Name string
	New  func() race.Detector
}

// StockDetectors returns the standard comparison set.
func StockDetectors() []NamedDetector {
	return []NamedDetector{
		{Name: "lockset", New: func() race.Detector { return race.NewLockset() }},
		{Name: "hb", New: func() race.Detector { return race.NewHB(true) }},
		{Name: "hb-noatomics", New: func() race.Detector { return race.NewHB(false) }},
		{Name: "hybrid", New: func() race.Detector { return race.NewHybrid(true) }},
	}
}

// defaultRacePrograms picks the measurement set: programs with
// documented races plus the correct programs (whose every warning is a
// false alarm).
func defaultRacePrograms() []string {
	var names []string
	for _, p := range repository.All() {
		switch {
		case len(p.BugVars) > 0 && (p.Kind == repository.KindRace || p.Kind == repository.KindOrder):
			names = append(names, p.Name)
		case !p.HasBug():
			names = append(names, p.Name)
		}
	}
	return names
}

// Race runs E2: per detector, warnings classified against the
// repository's documented ground truth, plus instrumentation overhead.
func Race(cfg RaceConfig) ([]*Table, error) {
	if len(cfg.Programs) == 0 {
		cfg.Programs = defaultRacePrograms()
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 10
	}

	summary := &Table{
		ID:      "E2",
		Title:   "race detectors: accuracy against documented bugs",
		Columns: []string{"detector", "bugs_found", "bugs_total", "recall", "warned_vars", "real", "false", "false_rate", "slowdown"},
	}
	summary.Note("a warning is real iff the variable is in the program's documented BugVars")
	summary.Note("correct programs contribute only false alarms; %d runs per program", cfg.Runs)
	summary.Note("slowdown: median over %d alternating timings of detector vs no-detector runs", slowdownSamples)

	perProg := &Table{
		ID:      "E2b",
		Title:   "race detectors: per-program warned variables",
		Columns: []string{"program", "kind", "bug_vars", "lockset", "hb", "hb-noatomics", "hybrid"},
	}

	type key struct{ det, prog string }
	warned := map[key][]string{}

	detectors := StockDetectors()
	bugsTotal := 0
	bodies := make([]func(core.T), len(cfg.Programs))
	for i, name := range cfg.Programs {
		prog, err := repository.Get(name)
		if err != nil {
			return nil, err
		}
		if len(prog.BugVars) > 0 {
			bugsTotal++
		}
		bodies[i] = prog.BodyWith(nil)
	}

	// Each sample times every program's matrix without a detector (the
	// baseline) and then under each detector, so slow phases of the
	// machine fall on both sides of a ratio; the column reports each
	// detector's median ratio over the samples. The runs are seeded, so
	// every sample's detector warns on the same variables; the first
	// sample's are kept.
	baselineTime := make([]time.Duration, slowdownSamples)
	detTime := map[string][]time.Duration{}
	for _, nd := range detectors {
		detTime[nd.Name] = make([]time.Duration, slowdownSamples)
	}
	for k := range slowdownSamples {
		for i, name := range cfg.Programs {
			start := time.Now()
			runMatrix(bodies[i], cfg.Runs)
			baselineTime[k] += time.Since(start)

			for _, nd := range detectors {
				d := nd.New()
				start := time.Now()
				runMatrix(bodies[i], cfg.Runs, d)
				detTime[nd.Name][k] += time.Since(start)
				if k == 0 {
					warned[key{nd.Name, name}] = d.WarnedVars()
				}
			}
		}
	}

	for _, nd := range detectors {
		bugsFound, real, false_ := 0, 0, 0
		var totalWarned int
		for _, name := range cfg.Programs {
			prog, _ := repository.Get(name)
			bug := map[string]bool{}
			for _, v := range prog.BugVars {
				bug[v] = true
			}
			vars := warned[key{nd.Name, name}]
			totalWarned += len(vars)
			hit := false
			for _, v := range vars {
				if bug[v] {
					real++
					hit = true
				} else {
					false_++
				}
			}
			if hit {
				bugsFound++
			}
		}
		slow := "-"
		if ratio, ok := medianRatio(detTime[nd.Name], baselineTime); ok {
			slow = f2(ratio) + "x"
		}
		summary.AddRow(nd.Name, itoa(bugsFound), itoa(bugsTotal), pct(bugsFound, bugsTotal),
			itoa(totalWarned), itoa(real), itoa(false_), pct(false_, totalWarned), slow)
	}

	for _, name := range cfg.Programs {
		prog, _ := repository.Get(name)
		row := []string{name, string(prog.Kind), join(prog.BugVars)}
		for _, nd := range detectors {
			row = append(row, join(warned[key{nd.Name, name}]))
		}
		perProg.AddRow(row...)
	}

	return []*Table{summary, perProg}, nil
}

// slowdownSamples is how many times E2 times each matrix for its
// slowdown column. One sample of ten short runs per program swung a
// detector's ratio by 15% between invocations.
const slowdownSamples = 5

// medianRatio is the median of det[k]/base[k] over the samples whose
// baseline took measurable time; ok is false when none did.
func medianRatio(det, base []time.Duration) (float64, bool) {
	var ratios []float64
	for k := range base {
		if base[k] > 0 {
			ratios = append(ratios, float64(det[k])/float64(base[k]))
		}
	}
	if len(ratios) == 0 {
		return 0, false
	}
	slices.Sort(ratios)
	if n := len(ratios); n%2 == 0 {
		return (ratios[n/2-1] + ratios[n/2]) / 2, true
	}
	return ratios[len(ratios)/2], true
}

// runMatrix executes the body under a spread of schedules with the
// listeners attached: half round-robin-style contention, half seeded
// random.
func runMatrix(body func(core.T), runs int, listeners ...core.Listener) {
	random := sched.RandomFactory()
	// No hook fails and nothing cancels, so Loop cannot fail.
	_, _ = sched.Loop(context.TODO(), runs, sched.Config{Listeners: listeners, MaxSteps: 500_000}, body, func(i int, cfg *sched.Config) error {
		cfg.Strategy = sched.RoundRobin()
		if i%2 == 1 {
			cfg.Strategy = random(int64(i))
		}
		return nil
	}, nil)
}

func join(s []string) string {
	if len(s) == 0 {
		return "-"
	}
	out := s[0]
	for _, v := range s[1:] {
		out += "," + v
	}
	return out
}
