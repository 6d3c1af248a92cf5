package experiment

import (
	"bytes"
	"context"
	"fmt"

	"mtbench/internal/core"
	"mtbench/internal/coverage"
	"mtbench/internal/deadlock"
	"mtbench/internal/ltl"
	"mtbench/internal/noise"
	"mtbench/internal/race"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
	"mtbench/internal/staticinfo"
	"mtbench/internal/trace"
)

// F1 — Figure 1 of the paper, executed: every edge of the technology
// interrelation diagram carries a real artifact through one pipeline.
//
//	static analysis ──info──▶ instrumentation plan
//	instrumentation ──events─▶ noise / race / coverage / trace
//	trace ──records──▶ offline race + lock-graph + temporal monitoring
//	noise ──schedule─▶ bug; schedule ──replay──▶ same bug
//
// The table reports the artifact produced at each stage, which is the
// benchmark's end-to-end smoke check.

// PipelineConfig parameterizes F1.
type PipelineConfig struct {
	Program string // default "account"
	Seeds   int    // noise seeds to try until the bug shows
}

// Pipeline runs F1 over one program.
func Pipeline(cfg PipelineConfig) ([]*Table, error) {
	if cfg.Program == "" {
		cfg.Program = "account"
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 200
	}
	prog, err := repository.Get(cfg.Program)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "F1",
		Title:   "technology pipeline (Figure 1 executed) on " + cfg.Program,
		Columns: []string{"stage", "technology", "artifact"},
	}

	// Stage 1: static analysis.
	info, err := staticinfo.ForProgram(prog)
	if err != nil {
		return nil, err
	}
	t.AddRow("1", "static analysis",
		fmt.Sprintf("shared=%v suspects=%v cycles=%d", info.SharedVars, info.RaceSuspects, len(info.DeadlockSuspects)))

	// Stage 2: instrumentation plan from static info.
	plan := info.Plan()
	t.AddRow("2", "instrumentor", fmt.Sprintf("plan: access probes limited to %d shared vars", len(info.SharedVars)))

	// Stage 3: instrumented noisy runs with online tools + trace
	// collection attached.
	var buf bytes.Buffer
	w := trace.NewJSONLWriter(&buf)
	if err := w.WriteHeader(trace.Header{Program: cfg.Program, Mode: "controlled", Noise: "bernoulli-0.4"}); err != nil {
		return nil, err
	}
	col := trace.NewCollector(w, prog.Annotator())
	onlineRace := race.NewHybrid(true)
	tracker := coverage.NewTracker()

	runCfg := sched.Config{Plan: plan, RecordSchedule: true, MaxSteps: 500_000, Listeners: []core.Listener{col, onlineRace, tracker}, Name: cfg.Program}
	// No hook fails (StopLoop is success) and nothing cancels, so Loop
	// cannot fail.
	lr, _ := sched.Loop(context.TODO(), cfg.Seeds, runCfg, prog.BodyWith(nil), func(i int, c *sched.Config) error {
		c.Seed = int64(i)
		c.Strategy = noise.NewStrategy(nil, noise.NewBernoulli(0.4, noise.KindYield), c.Seed)
		return nil
	}, func(_ int, res *core.Result) error {
		if res.Verdict.Bug() {
			return sched.StopLoop
		}
		return nil
	})
	if err := w.Flush(); err != nil {
		return nil, err
	}
	verdict := "bug not reached"
	if lr.Detected > 0 {
		verdict = fmt.Sprintf("bug after %d runs (seed %d): %s", lr.Runs, lr.Bugs[0].Index-1, lr.Bugs[0].Result.Verdict)
	}
	t.AddRow("3", "noise maker", verdict)
	t.AddRow("3", "online race detection", fmt.Sprintf("hybrid warned %v", onlineRace.WarnedVars()))
	t.AddRow("3", "coverage", tracker.String())

	// Stage 4: replay the failing schedule.
	if lr.Detected > 0 {
		rep := sched.Run(sched.Config{
			Strategy: &sched.FixedSchedule{Decisions: lr.Bugs[0].Schedule},
			Plan:     plan,
		}, prog.BodyWith(nil))
		t.AddRow("4", "replay", fmt.Sprintf("verdict reproduced: %v (diverged=%v)", rep.Verdict, rep.Diverged))
	} else {
		t.AddRow("4", "replay", "skipped (no failing schedule)")
	}

	// Stage 5: offline trace evaluation.
	offLS := race.NewLockset()
	gl := deadlock.NewAnalyzer()
	f, err := ltl.Parse("H(write(" + firstOr(prog.BugVars, "*") + ") -> O lock(*))")
	if err != nil {
		return nil, err
	}
	mon := ltl.NewMonitor(f)
	traceBytes := buf.Len()
	r, err := trace.NewJSONLReader(&buf)
	if err != nil {
		return nil, err
	}
	records := 0
	count := core.ListenerFunc(func(*core.Event) { records++ })
	if err := trace.Replay(r, core.MultiListener{offLS, gl, mon, count}); err != nil {
		return nil, err
	}
	t.AddRow("5", "trace", fmt.Sprintf("%d annotated records (%d bytes JSONL)", records, traceBytes))
	t.AddRow("5", "offline race detection", fmt.Sprintf("lockset warned %v", offLS.WarnedVars()))
	t.AddRow("5", "offline lock-graph", fmt.Sprintf("%d deadlock potentials", len(gl.Potentials())))
	t.AddRow("5", "temporal monitoring", fmt.Sprintf("%q: %d violations", mon.Property, len(mon.Violations())))

	return []*Table{t}, nil
}

func firstOr(s []string, def string) string {
	if len(s) > 0 {
		return s[0]
	}
	return def
}
