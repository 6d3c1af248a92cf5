package sched

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"mtbench/internal/core"
)

// failingBody always fails its oracle after spawning a worker.
func failingBody(ct core.T) {
	h := ct.Go("w", spawnWorker)
	h.Join(ct)
	ct.Failf("always")
}

// randomSetup seeds run i's reusable random strategy with i.
func randomSetup() func(int, *Config) error {
	random := RandomFactory()
	return func(i int, cfg *Config) error {
		cfg.Seed = int64(i)
		cfg.Strategy = random(cfg.Seed)
		return nil
	}
}

// TestLoopCancelFromEach: a context cancelled inside each at run k
// stops the loop after exactly k runs with ctx.Err(), and the result
// keeps what those runs found.
func TestLoopCancelFromEach(t *testing.T) {
	const k = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lr, err := Loop(ctx, 100, Config{}, failingBody, randomSetup(), func(i int, _ *core.Result) error {
		if i == k-1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lr.Runs != k || lr.Detected != k || lr.Steps == 0 {
		t.Fatalf("runs %d, detected %d, steps %d; want %d runs, all detected", lr.Runs, lr.Detected, lr.Steps, k)
	}
	if len(lr.Bugs) != 1 || lr.FirstBugIndex() != 1 {
		t.Fatalf("partial log %+v, want the one bug at run 1", lr.Bugs)
	}
}

// TestLoopStop: StopLoop from either hook ends the loop without an
// error; any other error is returned as is. Either way the result
// counts the runs made.
func TestLoopStop(t *testing.T) {
	stopAt := func(at int, err error) func(int, *core.Result) error {
		return func(i int, _ *core.Result) error {
			if i == at {
				return err
			}
			return nil
		}
	}
	lr, err := Loop(context.Background(), 10, Config{}, closureFreeBody, randomSetup(), stopAt(2, StopLoop))
	if err != nil || lr.Runs != 3 {
		t.Fatalf("StopLoop from each: runs %d, err %v; want 3 runs, no error", lr.Runs, err)
	}
	setup := randomSetup()
	lr, err = Loop(context.Background(), 10, Config{}, closureFreeBody, func(i int, cfg *Config) error {
		if i == 4 {
			return StopLoop
		}
		return setup(i, cfg)
	}, nil)
	if err != nil || lr.Runs != 4 {
		t.Fatalf("StopLoop from setup: runs %d, err %v; want 4 runs, no error", lr.Runs, err)
	}
	boom := errors.New("boom")
	lr, err = Loop(context.Background(), 10, Config{}, closureFreeBody, randomSetup(), stopAt(6, boom))
	if err != boom || lr.Runs != 7 {
		t.Fatalf("error from each: runs %d, err %v; want 7 runs, boom", lr.Runs, err)
	}
}

// TestLoopLogOutlivesPooledResult: the bug the log keeps from run 1 is
// the Result run 1 produced, field for field, after later runs have
// overwritten the runner's pooled Result.
func TestLoopLogOutlivesPooledResult(t *testing.T) {
	msg := ""
	body := func(ct core.T) {
		// The worker's name leads FinishOrder, so a run that reused the
		// logged bug's buffer would rename it.
		h := ct.Go(msg, spawnWorker)
		h.Join(ct)
		ct.Outcome("%s", msg)
		if msg != "pass" {
			ct.Failf("%s", msg)
		}
	}
	var first core.Result
	lr, err := Loop(context.Background(), 6, Config{RecordSchedule: true}, body, func(i int, cfg *Config) error {
		msg = []string{"first", "pass", "second"}[i%3]
		cfg.Strategy = Random(int64(i))
		return nil
	}, func(i int, res *core.Result) error {
		if i == 0 {
			first = *res
			first.FinishOrder = slices.Clone(res.FinishOrder)
			first.Schedule = slices.Clone(res.Schedule)
			f := *res.Failure
			first.Failure = &f
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Detected != 4 || len(lr.Bugs) != 2 {
		t.Fatalf("detected %d, %d distinct bugs; want 4 and 2", lr.Detected, len(lr.Bugs))
	}
	if got := lr.Bugs[0]; got.Index != 1 || !reflect.DeepEqual(*got.Result, first) {
		t.Fatalf("logged bug %d is %+v, run 1 produced %+v", got.Index, *got.Result, first)
	}
}

// TestLoopClosesRunner: every way out of the loop closes its Runner,
// a panicking hook included, so the virtual threads' goroutines return
// to the baseline count.
func TestLoopClosesRunner(t *testing.T) {
	boom := errors.New("boom")
	at := func(n int, do func() error) func(int, *core.Result) error {
		return func(i int, _ *core.Result) error {
			if i == n {
				return do()
			}
			return nil
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	setup := randomSetup()
	for name, loop := range map[string]func(){
		"complete": func() { Loop(context.Background(), 5, Config{}, closureFreeBody, setup, nil) },
		"cancel":   func() { Loop(ctx, 5, Config{}, closureFreeBody, setup, at(2, func() error { cancel(); return nil })) },
		"stop": func() {
			Loop(context.Background(), 5, Config{}, closureFreeBody, setup, at(2, func() error { return StopLoop }))
		},
		"error": func() {
			Loop(context.Background(), 5, Config{}, closureFreeBody, setup, at(2, func() error { return boom }))
		},
		"each panic": func() {
			Loop(context.Background(), 5, Config{}, closureFreeBody, setup, at(2, func() error { panic(boom) }))
		},
		"setup panic": func() {
			Loop(context.Background(), 5, Config{}, closureFreeBody, func(i int, cfg *Config) error {
				if i == 2 {
					panic(boom)
				}
				return setup(i, cfg)
			}, nil)
		},
	} {
		baseline := runtime.NumGoroutine()
		func() {
			defer func() {
				if r := recover(); r != nil && r != boom {
					panic(r)
				}
			}()
			loop()
		}()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%s: goroutines leaked: baseline %d, after the loop %d", name, baseline, n)
		}
	}
}

// TestLoopAllocs is the loop's allocation gate: with a closure-free
// body and a reseeding strategy factory, a loop iteration allocates
// nothing once the runner is warm.
func TestLoopAllocs(t *testing.T) {
	setup := randomSetup()
	loop := func(runs int) float64 {
		return testing.AllocsPerRun(20, func() {
			Loop(context.Background(), runs, Config{}, closureFreeBody, setup, nil)
		})
	}
	// The first two runs warm the runner's pools; from then on a loop
	// of any length costs the same.
	warm, long := loop(2), loop(202)
	if long > warm {
		t.Fatalf("a 202-run loop allocates %.1f objects, a 2-run loop %.1f: %.2f per iteration",
			long, warm, (long-warm)/200)
	}
}
