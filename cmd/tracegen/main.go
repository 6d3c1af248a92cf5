// Command tracegen is the benchmark's trace-production script (§4:
// "a script for producing any number of desirable traces in the above
// format", with inputs deciding the format and the instrumented
// points). It runs repository programs under seeded schedules and
// writes annotated traces.
//
// Usage:
//
//	tracegen -prog account -seeds 10 -format binary -out traces/
//	tracegen -prog philosophers -strategy random -format jsonl -out -   # stdout, one seed
//	tracegen -prog account -only-sync -out traces/                      # restrict instrumented points
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mtbench/internal/core"
	"mtbench/internal/instrument"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
	"mtbench/internal/strategies"
	"mtbench/internal/trace"
)

func main() {
	prog := flag.String("prog", "account", "program to trace")
	seeds := flag.Int("seeds", 1, "number of traces (one per seed)")
	strategy := flag.String("strategy", "noise", strategies.Usage())
	p := flag.Float64("p", 0.4, "noise probability")
	format := flag.String("format", "jsonl", "jsonl | binary")
	out := flag.String("out", "-", "output directory, or - for stdout (single seed)")
	onlySync := flag.Bool("only-sync", false, "record only synchronization and lifecycle events")
	flag.Parse()

	if err := run(*prog, *seeds, *strategy, *p, *format, *out, *onlySync); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// formats maps each -format name to its file extension and writer.
var formats = map[string]struct {
	ext       string
	newWriter func(io.Writer) trace.Writer
}{
	"jsonl":  {"jsonl", func(w io.Writer) trace.Writer { return trace.NewJSONLWriter(w) }},
	"binary": {"mtbt", func(w io.Writer) trace.Writer { return trace.NewBinaryWriter(w) }},
}

func run(progName string, seeds int, strategy string, p float64, format, out string, onlySync bool) error {
	codec, ok := formats[format]
	if !ok {
		return fmt.Errorf("unknown format %q (have jsonl, binary)", format)
	}
	prog, err := repository.Get(progName)
	if err != nil {
		return err
	}
	if out == "-" && seeds != 1 {
		return fmt.Errorf("stdout output supports exactly one seed")
	}
	tool, err := strategies.New(strategy, strategies.Params{P: p})
	if err != nil {
		return err
	}

	var plan *instrument.Plan
	if onlySync {
		plan = instrument.All().DisableOps(core.OpYield, core.OpSleep)
	}

	// setup opens run i's trace and hands the run its collector; each
	// flushes and closes it.
	var tw trace.Writer
	var col *trace.Collector
	closeFn := func() error { return nil }
	cfg := sched.Config{Plan: plan, MaxSteps: 1_000_000, Name: progName}
	_, err = sched.Loop(context.Background(), seeds, cfg, prog.BodyWith(nil), func(i int, cfg *sched.Config) error {
		seed := int64(i)
		w := io.Writer(os.Stdout)
		if out != "-" {
			if err := os.MkdirAll(out, 0o755); err != nil {
				return err
			}
			path := filepath.Join(out, fmt.Sprintf("%s-%d.%s", progName, seed, codec.ext))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			w, closeFn = f, f.Close
			fmt.Fprintf(os.Stderr, "writing %s\n", path)
		}
		tw = codec.newWriter(w)
		if err := tw.WriteHeader(trace.Header{
			Program:  progName,
			Mode:     "controlled",
			Seed:     seed,
			Strategy: strategy,
			Bug:      prog.Synopsis,
		}); err != nil {
			return err
		}
		col = trace.NewCollector(tw, prog.Annotator())
		cfg.Seed, cfg.Strategy, cfg.Listeners = seed, tool(seed), []core.Listener{col}
		return nil
	}, func(i int, res *core.Result) error {
		if err := col.Err(); err != nil {
			return err
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		if err := closeFn(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "seed %d: %s (%d events)\n", i, res.Verdict, res.Events)
		return nil
	})
	return err
}
