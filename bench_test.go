package mtbench_test

// The benchmark harness: one testing.B benchmark per experiment in
// DESIGN.md's index (F1, E1..E13), each invoking the prepared
// experiment with a bench-sized configuration, plus microbenchmarks
// for the substrate costs the paper's overhead comparisons rest on
// (scheduling points, native probes, detector events, trace codecs).
//
// Regenerate all results with:
//
//	go test -bench=. -benchmem ./...

import (
	"bytes"
	"io"
	"testing"

	"mtbench"
	"mtbench/internal/campaign"
	"mtbench/internal/core"
	"mtbench/internal/experiment"
	"mtbench/internal/ltl"
	"mtbench/internal/race"
	"mtbench/internal/trace"
	"mtbench/internal/vclock"
)

// runExperiment executes a prepared experiment b.N times and renders
// the final result to the benchmark log once.
func runExperiment(b *testing.B, run func() ([]*experiment.Table, error)) {
	b.Helper()
	var tables []*experiment.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := experiment.RenderAll(&buf, tables); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + buf.String())
}

func BenchmarkF1Pipeline(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.Pipeline(experiment.PipelineConfig{Program: "account", Seeds: 200})
	})
}

func BenchmarkE1Noise(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.Noise(experiment.NoiseConfig{Budget: 40})
	})
}

func BenchmarkE2Race(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.Race(experiment.RaceConfig{Runs: 8})
	})
}

func BenchmarkE3Replay(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.Replay(experiment.ReplayConfig{ControlledTrials: 20, NativeRecords: 2, NativeReplays: 2})
	})
}

func BenchmarkE4Coverage(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.Coverage(experiment.CoverageConfig{Runs: 10, Budget: 30})
	})
}

func BenchmarkE5Explore(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.Explore(experiment.ExploreConfig{Budget: 20000})
	})
}

func BenchmarkE6Cloning(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.Cloning(experiment.CloningConfig{Runs: 30})
	})
}

func BenchmarkE7Multiout(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.Multiout(experiment.MultioutConfig{Runs: 80})
	})
}

func BenchmarkE8Static(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.Static(experiment.StaticConfig{})
	})
}

func BenchmarkE9Trace(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.Trace(experiment.TraceConfig{Seeds: 3})
	})
}

func BenchmarkE10TraceEval(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.TraceEval(experiment.TraceEvalConfig{Seeds: 4})
	})
}

func BenchmarkE11Fuzz(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.Fuzz(experiment.FuzzConfig{Budget: 800})
	})
}

func BenchmarkE12Campaign(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.Campaign(experiment.CampaignConfig{
			Campaign: campaign.Config{Budget: 200, Workers: 4},
		})
	})
}

func BenchmarkE13Bounding(b *testing.B) {
	runExperiment(b, func() ([]*experiment.Table, error) {
		return experiment.Bounding(experiment.BoundingConfig{
			Programs: []string{"account", "philosophers"},
			Budget:   500,
		})
	})
}

// --- substrate microbenchmarks ---

// BenchmarkControlledStep measures the cost of one scheduling point in
// the controlled runtime (two channel handoffs plus strategy call).
func BenchmarkControlledStep(b *testing.B) {
	iters := b.N
	b.ResetTimer()
	res := mtbench.RunControlled(mtbench.ControlledConfig{MaxSteps: int64(iters) + 1000}, func(t mtbench.T) {
		x := t.NewInt("x", 0)
		for i := 0; i < iters; i++ {
			x.Add(t, 1)
		}
	})
	if res.Verdict != mtbench.VerdictPass {
		b.Fatal(res)
	}
}

// BenchmarkNativeProbe measures one instrumented operation on the
// native runtime (atomic op + serialized emission).
func BenchmarkNativeProbe(b *testing.B) {
	iters := b.N
	b.ResetTimer()
	res := mtbench.RunNative(mtbench.NativeConfig{}, func(t mtbench.T) {
		x := t.NewInt("x", 0)
		for i := 0; i < iters; i++ {
			x.Add(t, 1)
		}
	})
	if res.Verdict != mtbench.VerdictPass {
		b.Fatal(res)
	}
}

// detectorBench feeds a synthetic contended event stream to a
// detector.
func detectorBench(b *testing.B, d race.Detector) {
	evs := make([]core.Event, 8)
	for i := range evs {
		op := core.OpRead
		if i%3 == 0 {
			op = core.OpWrite
		}
		evs[i] = core.Event{
			Seq: int64(i), Thread: core.ThreadID(i % 4), Op: op,
			Obj: core.ObjectID(i%2 + 1), Name: "v",
			Loc: core.Location{File: "f.go", Line: i},
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := evs[i%len(evs)]
		ev.Seq = int64(i)
		d.OnEvent(&ev)
	}
}

func BenchmarkLocksetEvent(b *testing.B) { detectorBench(b, race.NewLockset()) }
func BenchmarkHBEvent(b *testing.B)      { detectorBench(b, race.NewHB(true)) }
func BenchmarkHybridEvent(b *testing.B)  { detectorBench(b, race.NewHybrid(true)) }

// traceBench measures per-record encoding cost of a codec.
func traceBench(b *testing.B, mk func(io.Writer) trace.Writer) {
	w := mk(io.Discard)
	if err := w.WriteHeader(trace.Header{Program: "bench"}); err != nil {
		b.Fatal(err)
	}
	rec := trace.Record{
		Seq: 1, Thread: 2, Op: "write", Obj: 3, Name: "balance", Value: 42,
		File: "repository/prog_races.go", Line: 21, Fn: "repository.accountBody",
		Why: "shared-access", Bug: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Seq = int64(i + 1)
		if err := w.WriteRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTraceJSONLWrite(b *testing.B)  { traceBench(b, trace.NewJSONLWriter) }
func BenchmarkTraceBinaryWrite(b *testing.B) { traceBench(b, trace.NewBinaryWriter) }

// BenchmarkVectorClockJoin measures the HB merge primitive.
func BenchmarkVectorClockJoin(b *testing.B) {
	a := vclock.New(8)
	c := vclock.New(8)
	for i := core.ThreadID(0); i < 8; i++ {
		a.Set(i, int64(i*7))
		c.Set(i, int64(i*3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Join(c)
		a.Tick(3)
	}
}

// BenchmarkLTLStep measures one monitored event for a realistic
// property.
func BenchmarkLTLStep(b *testing.B) {
	f, err := ltl.Parse("H(write(balance) -> O lock(mu))")
	if err != nil {
		b.Fatal(err)
	}
	m := ltl.NewMonitor(f)
	ev := core.Event{Op: core.OpLock, Name: "mu", Value: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Seq = int64(i)
		m.OnEvent(&ev)
	}
}
