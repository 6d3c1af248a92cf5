// Guard-rail tests for single-cell execution: the panic sandbox, the
// cell wall-clock timeout, and the kill-vs-timeout context split that
// the distributed workers (internal/campsvc) rely on.
package campaign

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// registerTestFinder installs a finder for one test and removes it on
// cleanup, so no test sees another's finders.
func registerTestFinder(t *testing.T, name string, fn func(ctx context.Context, in CellInput) (CellResult, error)) {
	t.Helper()
	if err := RegisterFinder(name, "test finder", fn); err != nil {
		t.Fatalf("RegisterFinder(%q): %v", name, err)
	}
	t.Cleanup(func() { delete(finderTable, name) })
}

func testCell(finder string) Cell {
	return Cell{Program: "lockedcounter", Finder: finder, Seed: 0, Budget: 10}
}

func TestExecCellPanicRecovered(t *testing.T) {
	registerTestFinder(t, "test-panic", func(ctx context.Context, in CellInput) (CellResult, error) {
		panic("finder exploded")
	})
	cfg := Config{Finders: []string{"test-panic"}, Programs: []string{"lockedcounter"}, Budget: 10}

	rec, err := ExecCell(context.Background(), cfg, testCell("test-panic"))
	if err != nil {
		t.Fatalf("ExecCell: %v", err)
	}
	if !rec.Failed() || !strings.HasPrefix(rec.Outcome, "panic: ") {
		t.Fatalf("outcome = %q, want panic classification", rec.Outcome)
	}
	if !strings.Contains(rec.Outcome, "finder exploded") {
		t.Errorf("outcome lost the panic value: %q", rec.Outcome)
	}
	if !strings.Contains(rec.Outcome, "goroutine") {
		t.Errorf("outcome carries no stack: %.80q", rec.Outcome)
	}
	if rec.Runs != 0 || rec.FirstBug != -1 || len(rec.Bugs) != 0 {
		t.Errorf("panic record carries finder results: %+v", rec)
	}
}

func TestExecCellTimeout(t *testing.T) {
	registerTestFinder(t, "test-hang", func(ctx context.Context, in CellInput) (CellResult, error) {
		<-ctx.Done() // honour the deadline like a well-behaved finder
		return CellResult{}, ctx.Err()
	})
	cfg := Config{
		Finders:     []string{"test-hang"},
		Programs:    []string{"lockedcounter"},
		Budget:      10,
		CellTimeout: 20 * time.Millisecond,
	}

	rec, err := ExecCell(context.Background(), cfg, testCell("test-hang"))
	if err != nil {
		t.Fatalf("ExecCell: %v", err)
	}
	if !strings.HasPrefix(rec.Outcome, "timeout: ") {
		t.Fatalf("outcome = %q, want timeout classification", rec.Outcome)
	}
	if rec.Runs != 0 || rec.FirstBug != -1 {
		t.Errorf("timeout record carries finder results: %+v", rec)
	}
}

func TestExecCellTimeoutUncooperativeFinder(t *testing.T) {
	// An engine-style finder that never looks at its context: the
	// executor must abandon it and still settle the cell.
	release := make(chan struct{})
	registerTestFinder(t, "test-deaf", func(ctx context.Context, in CellInput) (CellResult, error) {
		<-release
		return CellResult{FirstBug: -1}, nil
	})
	t.Cleanup(func() { close(release) })
	cfg := Config{
		Finders:     []string{"test-deaf"},
		Programs:    []string{"lockedcounter"},
		Budget:      10,
		CellTimeout: 20 * time.Millisecond,
	}

	rec, err := ExecCell(context.Background(), cfg, testCell("test-deaf"))
	if err != nil {
		t.Fatalf("ExecCell: %v", err)
	}
	if !strings.HasPrefix(rec.Outcome, "timeout: ") {
		t.Fatalf("outcome = %q, want timeout classification", rec.Outcome)
	}
}

func TestExecCellKilled(t *testing.T) {
	registerTestFinder(t, "test-killable", func(ctx context.Context, in CellInput) (CellResult, error) {
		<-ctx.Done()
		return CellResult{}, ctx.Err()
	})
	cfg := Config{Finders: []string{"test-killable"}, Programs: []string{"lockedcounter"}, Budget: 10}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	rec, err := ExecCell(ctx, cfg, testCell("test-killable"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecCell err = %v, want context.Canceled", err)
	}
	if rec.Program != "" || rec.Outcome != "" {
		t.Errorf("killed cell produced a record: %+v", rec)
	}
}

func TestCampaignRunRecoversPanic(t *testing.T) {
	// A panicking finder costs one "panic:" record, not the pool: the
	// other finder's cells all complete normally.
	registerTestFinder(t, "test-panic-pool", func(ctx context.Context, in CellInput) (CellResult, error) {
		panic("poison")
	})
	cfg := Config{
		Finders:  []string{"noise", "test-panic-pool"},
		Programs: []string{"lockedcounter", "semleak"},
		Budget:   30,
		Workers:  2,
	}

	sum, err := Run(context.Background(), cfg, nil, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Executed != 4 {
		t.Fatalf("executed %d cells, want 4", sum.Executed)
	}
	var panicked, normal int
	for _, rec := range sum.Records {
		switch {
		case strings.HasPrefix(rec.Outcome, "panic: "):
			panicked++
			if rec.Finder != "test-panic-pool" {
				t.Errorf("panic record from wrong finder: %+v", rec)
			}
		case rec.Failed():
			t.Errorf("unexpected abnormal record: %+v", rec)
		default:
			normal++
			if rec.Runs == 0 {
				t.Errorf("normal record with zero runs: %+v", rec)
			}
		}
	}
	if panicked != 2 || normal != 2 {
		t.Fatalf("got %d panic / %d normal records, want 2 / 2", panicked, normal)
	}
}

func TestRegisterFinderValidation(t *testing.T) {
	ok := func(ctx context.Context, in CellInput) (CellResult, error) { return CellResult{FirstBug: -1}, nil }
	for _, name := range []string{"", "has space", "has|pipe", "has\nnewline"} {
		if err := RegisterFinder(name, "doc", ok); err == nil {
			delete(finderTable, name)
			t.Errorf("RegisterFinder(%q) accepted an invalid name", name)
		}
	}
	if err := RegisterFinder("test-valid", "doc", nil); err == nil {
		delete(finderTable, "test-valid")
		t.Error("RegisterFinder accepted a nil function")
	}
	registerTestFinder(t, "test-dup", ok)
	if err := RegisterFinder("test-dup", "doc", ok); err == nil {
		t.Error("RegisterFinder accepted a duplicate name")
	}
}

// TestExecCellTimeoutStopsEngine: a timed-out engine cell must stop its
// engine, not abandon it. Full-size philosophers under a 200,000-run
// budget keeps each engine busy for many seconds, so only a search that
// honours the cell's context returns the process to its goroutine
// baseline within a second of the timeout record.
func TestExecCellTimeoutStopsEngine(t *testing.T) {
	for _, finder := range []string{"explore", "fuzz", "pct"} {
		t.Run(finder, func(t *testing.T) {
			cfg := Config{
				Finders:  []string{finder},
				Programs: []string{"philosophers"},
				Params:   map[string]map[string]int{},
			}
			// Warm up first: engines pool runners whose parked thread
			// goroutines belong in the baseline.
			if _, err := ExecCell(context.Background(), cfg, Cell{Program: "philosophers", Finder: finder, Budget: 5}); err != nil {
				t.Fatalf("warm-up: %v", err)
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
			baseline := runtime.NumGoroutine()

			cfg.CellTimeout = 50 * time.Millisecond
			rec, err := ExecCell(context.Background(), cfg, Cell{Program: "philosophers", Finder: finder, Budget: 200_000})
			if err != nil {
				t.Fatalf("ExecCell: %v", err)
			}
			if !strings.HasPrefix(rec.Outcome, "timeout: ") {
				t.Fatalf("outcome = %q, want timeout classification", rec.Outcome)
			}
			deadline := time.Now().Add(time.Second)
			for {
				runtime.GC()
				n := runtime.NumGoroutine()
				if n <= baseline {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("timed-out %s cell left its engine running: baseline %d goroutines, now %d", finder, baseline, n)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
