package sched_test

import (
	"encoding/json"
	"runtime"
	"slices"
	"testing"
	"time"

	"mtbench/internal/core"
	"mtbench/internal/coverage"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// TestRunnerPoolingDeterminism is the reuse contract behind the whole
// performance architecture: every repository program, run repeatedly
// through ONE reused Runner (pooled threads, pooled buffers, interned
// events), produces results byte-identical to a fresh scheduler per
// run — verdict, outcome, failure signature, step and event counts,
// thread count, finish order, deadlock description and the recorded
// schedule. Each program runs twice through the shared runner so the
// second run exercises a pool warmed by the first, and the runner is
// shared across programs so pools are also re-shaped between bodies
// with different thread counts.
func TestRunnerPoolingDeterminism(t *testing.T) {
	runner := sched.NewRunner()
	defer runner.Close()

	for _, p := range repository.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			body := p.BodyWith(nil)
			for seed := int64(0); seed < 2; seed++ {
				for round := 0; round < 2; round++ {
					cfg := func() sched.Config {
						return sched.Config{
							Strategy:       sched.Random(seed),
							Seed:           seed,
							Name:           p.Name,
							MaxSteps:       300_000,
							RecordSchedule: true,
						}
					}
					fresh := sched.Run(cfg(), body)
					pooled := runner.Run(cfg(), body)
					// The pooled schedule aliases the runner's buffer;
					// snapshot it before the next Run.
					pooledSchedule := slices.Clone(pooled.Schedule)

					if pooled.Verdict != fresh.Verdict || pooled.Outcome != fresh.Outcome ||
						pooled.Steps != fresh.Steps || pooled.Events != fresh.Events ||
						pooled.Threads != fresh.Threads || pooled.DeadlockInfo != fresh.DeadlockInfo {
						t.Fatalf("seed %d round %d: pooled %v != fresh %v", seed, round, pooled, fresh)
					}
					if core.BugSignature(pooled) != core.BugSignature(fresh) {
						t.Fatalf("seed %d round %d: pooled signature %q != fresh %q",
							seed, round, core.BugSignature(pooled), core.BugSignature(fresh))
					}
					if !slices.Equal(pooled.FinishOrder, fresh.FinishOrder) {
						t.Fatalf("seed %d round %d: finish order %v != %v",
							seed, round, pooled.FinishOrder, fresh.FinishOrder)
					}
					if !slices.Equal(pooledSchedule, fresh.Schedule) {
						t.Fatalf("seed %d round %d: recorded schedules differ (%d vs %d decisions)",
							seed, round, len(pooledSchedule), len(fresh.Schedule))
					}
				}
			}
		})
	}
}

// TestRunnerAcrossGoroutines pins that a Runner may move between
// goroutines between runs, as exploration's worker-kit pool moves it
// between worker goroutines: goroutine A runs every repository program
// on one Runner, hands it over a channel to goroutine B, which runs
// every program again. Every result is byte-identical to a fresh
// runner's. Under -race it also checks that the hand-over orders the
// Runner's memory.
func TestRunnerAcrossGoroutines(t *testing.T) {
	progs := repository.All()
	cfg := func(name string) sched.Config {
		return sched.Config{Strategy: sched.Random(7), Seed: 7, Name: name, MaxSteps: 300_000,
			RecordSchedule: true, SkipTiming: true}
	}
	render := func(res *core.Result) string {
		b, err := json.Marshal(res)
		if err != nil {
			panic(err)
		}
		return string(b)
	}
	want := make([]string, len(progs))
	for i, p := range progs {
		want[i] = render(sched.Run(cfg(p.Name), p.BodyWith(nil)))
	}
	runAll := func(r *sched.Runner) []string {
		out := make([]string, len(progs))
		for i, p := range progs {
			out[i] = render(r.Run(cfg(p.Name), p.BodyWith(nil)))
		}
		return out
	}

	handA, handB := make(chan *sched.Runner), make(chan *sched.Runner)
	gotA, gotB := make(chan []string, 1), make(chan []string, 1)
	go func() {
		r := sched.NewRunner()
		gotA <- runAll(r)
		handB <- r
	}()
	go func() {
		r := <-handB
		gotB <- runAll(r)
		handA <- r
	}()
	a, b := <-gotA, <-gotB
	(<-handA).Close()
	for i, p := range progs {
		if a[i] != want[i] {
			t.Errorf("%s on goroutine A:\n%s\nfresh runner:\n%s", p.Name, a[i], want[i])
		}
		if b[i] != want[i] {
			t.Errorf("%s on goroutine B:\n%s\nfresh runner:\n%s", p.Name, b[i], want[i])
		}
	}
}

// TestRunnerPoolingCoverage pins the listener-visible event stream
// under pooling: the concurrency-coverage signature of a pooled run
// (which hashes every access's thread, variable and program point)
// matches a fresh run's exactly.
func TestRunnerPoolingCoverage(t *testing.T) {
	runner := sched.NewRunner()
	defer runner.Close()

	for _, name := range []string{"account", "philosophers", "rwupgrade", "lostnotify"} {
		prog, err := repository.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		body := prog.BodyWith(nil)
		for seed := int64(0); seed < 2; seed++ {
			freshCov := coverage.NewTracker()
			pooledCov := coverage.NewTracker()
			cfg := func(cov *coverage.Tracker) sched.Config {
				return sched.Config{
					Strategy:  sched.Random(seed),
					Listeners: []core.Listener{cov},
					Name:      name,
					MaxSteps:  300_000,
				}
			}
			sched.Run(cfg(freshCov), body)
			runner.Run(cfg(pooledCov), body)
			if f, p := freshCov.Tasks(), pooledCov.Tasks(); !slices.Equal(f, p) {
				t.Fatalf("%s seed %d: pooled coverage %v != fresh %v", name, seed, p, f)
			}
		}
	}
}

// TestRunnerCloseNoLeak pins the no-goroutine-leak contract: a Runner
// that executed strategy-driven runs, coasted runs and fast-forwards
// that diverged mid-run (torn down with live threads) releases every
// virtual thread's goroutine on Close, returning runtime.NumGoroutine
// to its pre-runner baseline.
func TestRunnerCloseNoLeak(t *testing.T) {
	prog, err := repository.Get("philosophers")
	if err != nil {
		t.Fatal(err)
	}
	body := prog.BodyWith(nil)
	baseline := runtime.NumGoroutine()

	runner := sched.NewRunner()
	for i := int64(0); i < 4; i++ {
		full := runner.Run(sched.Config{Strategy: sched.Random(i), MaxSteps: 300_000, RecordSchedule: true}, body)
		prefix := slices.Clone(full.Schedule[:len(full.Schedule)/2])
		runner.Run(sched.Config{Strategy: &coaster{inner: sched.Random(i), at: 5}, MaxSteps: 300_000}, body)
		bad := sched.Snapshot{Steps: -1}
		if res := runner.Run(sched.Config{MaxSteps: 300_000, FastForward: prefix, FFCheck: &bad}, body); !res.Diverged {
			t.Fatalf("seed %d: tampered fast-forward did not diverge: %v", i, res)
		}
	}
	runner.Close()

	// Released goroutines exit asynchronously after receiving their
	// quit message; give them a bounded moment to drain.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: baseline %d, after close %d", baseline, n)
	}
}
