package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mtbench/internal/core"
)

// TestSequentialBody checks that a single-threaded body runs to
// completion and produces a pass verdict.
func TestSequentialBody(t *testing.T) {
	ran := false
	res := Run(Config{}, func(ct core.T) {
		v := ct.NewInt("x", 1)
		v.Store(ct, 41)
		got := v.Add(ct, 1)
		ct.Assert(got == 42, "got %d", got)
		ran = true
	})
	if !ran {
		t.Fatal("body did not run")
	}
	if res.Verdict != core.VerdictPass {
		t.Fatalf("verdict = %v, want pass (%v)", res.Verdict, res)
	}
	if res.Threads != 1 {
		t.Fatalf("threads = %d, want 1", res.Threads)
	}
}

// TestForkJoin checks thread creation, joining, and deterministic id
// assignment.
func TestForkJoin(t *testing.T) {
	res := Run(Config{}, func(ct core.T) {
		sum := ct.NewInt("sum", 0)
		var hs []core.Handle
		for i := 0; i < 5; i++ {
			hs = append(hs, ct.Go("worker", func(wt core.T) {
				sum.Add(wt, 1)
			}))
		}
		for i, h := range hs {
			if h.TID() != core.ThreadID(i+1) {
				ct.Failf("handle %d has tid %d", i, h.TID())
			}
			h.Join(ct)
		}
		ct.Assert(sum.Load(ct) == 5, "sum = %d", sum.Load(ct))
	})
	if res.Verdict != core.VerdictPass {
		t.Fatalf("verdict = %v (%v)", res.Verdict, res)
	}
	if res.Threads != 6 {
		t.Fatalf("threads = %d, want 6", res.Threads)
	}
}

// TestAssertFailure checks that a failed oracle yields VerdictFail with
// the failure message and location.
func TestAssertFailure(t *testing.T) {
	res := Run(Config{}, func(ct core.T) {
		ct.Assert(false, "boom %d", 7)
	})
	if res.Verdict != core.VerdictFail {
		t.Fatalf("verdict = %v, want fail", res.Verdict)
	}
	if res.Failure == nil || res.Failure.Msg != "boom 7" {
		t.Fatalf("failure = %+v", res.Failure)
	}
	if res.Failure.Loc.File == "" {
		t.Fatal("failure location not captured")
	}
}

// TestMutexExclusion checks that the controlled mutex provides mutual
// exclusion under an adversarial random schedule.
func TestMutexExclusion(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		res := Run(Config{Strategy: Random(seed), Seed: seed}, func(ct core.T) {
			mu := ct.NewMutex("mu")
			inCS := ct.NewInt("inCS", 0)
			var hs []core.Handle
			for i := 0; i < 3; i++ {
				hs = append(hs, ct.Go("w", func(wt core.T) {
					for j := 0; j < 3; j++ {
						mu.Lock(wt)
						n := inCS.Add(wt, 1)
						wt.Assert(n == 1, "two threads in critical section")
						inCS.Add(wt, -1)
						mu.Unlock(wt)
					}
				}))
			}
			for _, h := range hs {
				h.Join(ct)
			}
		})
		if res.Verdict != core.VerdictPass {
			t.Fatalf("seed %d: verdict = %v (%v)", seed, res.Verdict, res)
		}
	}
}

// TestLostUpdateManifests checks that the canonical load-then-store
// race is actually found by random scheduling — the existence proof
// that the controlled runtime exposes interleaving bugs.
func TestLostUpdateManifests(t *testing.T) {
	body := func(ct core.T) {
		x := ct.NewInt("x", 0)
		h1 := ct.Go("a", func(wt core.T) {
			v := x.Load(wt)
			x.Store(wt, v+1)
		})
		h2 := ct.Go("b", func(wt core.T) {
			v := x.Load(wt)
			x.Store(wt, v+1)
		})
		h1.Join(ct)
		h2.Join(ct)
		ct.Assert(x.Load(ct) == 2, "lost update: x = %d", x.Load(ct))
	}

	// The nonpreemptive baseline must never find it.
	for i := 0; i < 10; i++ {
		if res := Run(Config{}, body); res.Verdict != core.VerdictPass {
			t.Fatalf("nonpreemptive run %d unexpectedly failed: %v", i, res)
		}
	}

	// Random scheduling must find it within a reasonable seed budget.
	found := false
	for seed := int64(0); seed < 100; seed++ {
		if res := Run(Config{Strategy: Random(seed)}, body); res.Verdict == core.VerdictFail {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("random scheduling never exposed the lost update in 100 seeds")
	}
}

// TestDeadlockDetection checks that a classic lock-order inversion is
// reported as a deadlock with a cycle, not a hang.
func TestDeadlockDetection(t *testing.T) {
	found := false
	for seed := int64(0); seed < 50 && !found; seed++ {
		res := Run(Config{Strategy: Random(seed)}, func(ct core.T) {
			a := ct.NewMutex("A")
			b := ct.NewMutex("B")
			h1 := ct.Go("ab", func(wt core.T) {
				a.Lock(wt)
				b.Lock(wt)
				b.Unlock(wt)
				a.Unlock(wt)
			})
			h2 := ct.Go("ba", func(wt core.T) {
				b.Lock(wt)
				a.Lock(wt)
				a.Unlock(wt)
				b.Unlock(wt)
			})
			h1.Join(ct)
			h2.Join(ct)
		})
		switch res.Verdict {
		case core.VerdictDeadlock:
			found = true
			if res.DeadlockInfo == "" {
				t.Fatal("deadlock reported without info")
			}
		case core.VerdictPass:
		default:
			t.Fatalf("seed %d: unexpected verdict %v (%v)", seed, res.Verdict, res)
		}
	}
	if !found {
		t.Fatal("lock-order deadlock never manifested in 50 seeds")
	}
}

// TestCondLostSignal checks Java signal semantics: a Signal with no
// waiter is lost, so a waiter that arrives later deadlocks.
func TestCondLostSignal(t *testing.T) {
	res := Run(Config{}, func(ct core.T) {
		mu := ct.NewMutex("mu")
		cv := ct.NewCond("cv", mu)
		// Signal first (nonpreemptive runs main to its block point).
		mu.Lock(ct)
		cv.Signal(ct)
		mu.Unlock(ct)
		h := ct.Go("waiter", func(wt core.T) {
			mu.Lock(wt)
			cv.Wait(wt)
			mu.Unlock(wt)
		})
		h.Join(ct)
	})
	if res.Verdict != core.VerdictDeadlock {
		t.Fatalf("verdict = %v, want deadlock (%v)", res.Verdict, res)
	}
}

// TestCondSignalWakesOne checks that Signal wakes exactly one waiter
// and Broadcast wakes all.
func TestCondSignalWakesOne(t *testing.T) {
	res := Run(Config{Strategy: RoundRobin()}, func(ct core.T) {
		mu := ct.NewMutex("mu")
		cv := ct.NewCond("cv", mu)
		woken := ct.NewInt("woken", 0)
		waiting := ct.NewInt("waiting", 0)
		var hs []core.Handle
		for i := 0; i < 3; i++ {
			hs = append(hs, ct.Go("w", func(wt core.T) {
				mu.Lock(wt)
				waiting.Add(wt, 1)
				cv.Wait(wt)
				woken.Add(wt, 1)
				mu.Unlock(wt)
			}))
		}
		// Wait until all three are parked in Wait.
		for {
			mu.Lock(ct)
			n := waiting.Load(ct)
			mu.Unlock(ct)
			if n == 3 {
				break
			}
			ct.Yield()
		}
		mu.Lock(ct)
		cv.Signal(ct)
		mu.Unlock(ct)
		for woken.Load(ct) < 1 {
			ct.Yield()
		}
		ct.Assert(woken.Load(ct) == 1, "signal woke %d", woken.Load(ct))
		mu.Lock(ct)
		cv.Broadcast(ct)
		mu.Unlock(ct)
		for _, h := range hs {
			h.Join(ct)
		}
		ct.Assert(woken.Load(ct) == 3, "after broadcast woken = %d", woken.Load(ct))
	})
	if res.Verdict != core.VerdictPass {
		t.Fatalf("verdict = %v (%v)", res.Verdict, res)
	}
}

// TestSleepVirtualTime checks that Sleep uses virtual time: a sleeping
// thread resumes without real delay, and sleeps order wakeups.
func TestSleepVirtualTime(t *testing.T) {
	start := time.Now()
	res := Run(Config{}, func(ct core.T) {
		order := ct.NewInt("order", 0)
		h1 := ct.Go("slow", func(wt core.T) {
			wt.Sleep(5 * time.Second) // virtual: must not really sleep
			wt.Assert(order.CompareAndSwap(wt, 1, 2), "slow woke first")
		})
		h2 := ct.Go("fast", func(wt core.T) {
			wt.Sleep(1 * time.Second)
			wt.Assert(order.CompareAndSwap(wt, 0, 1), "fast woke second")
		})
		h1.Join(ct)
		h2.Join(ct)
	})
	if res.Verdict != core.VerdictPass {
		t.Fatalf("verdict = %v (%v)", res.Verdict, res)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("virtual sleep took real time: %v", elapsed)
	}
}

// TestStepLimit checks that infinite loops become VerdictStepLimit.
func TestStepLimit(t *testing.T) {
	res := Run(Config{MaxSteps: 1000}, func(ct core.T) {
		x := ct.NewInt("x", 0)
		for {
			x.Add(ct, 1)
		}
	})
	if res.Verdict != core.VerdictStepLimit {
		t.Fatalf("verdict = %v, want steplimit", res.Verdict)
	}
}

// TestDeterministicReplay checks the core reproducibility property: the
// same strategy seed produces the identical event sequence, and the
// recorded schedule replayed through FixedSchedule reproduces the
// result exactly.
func TestDeterministicReplay(t *testing.T) {
	body := func(ct core.T) {
		x := ct.NewInt("x", 0)
		mu := ct.NewMutex("mu")
		var hs []core.Handle
		for i := 0; i < 3; i++ {
			i := i
			hs = append(hs, ct.Go("w", func(wt core.T) {
				mu.Lock(wt)
				x.Add(wt, int64(i))
				mu.Unlock(wt)
				v := x.Load(wt)
				x.Store(wt, v+1)
			}))
		}
		for _, h := range hs {
			h.Join(ct)
		}
		ct.Outcome("x=%d", x.Load(ct))
	}

	capture := func(strategy Strategy) (*core.Result, []core.Event) {
		var evs []core.Event
		res := Run(Config{
			Strategy:       strategy,
			RecordSchedule: true,
			Listeners:      []core.Listener{core.ListenerFunc(func(e *core.Event) { evs = append(evs, *e) })},
		}, body)
		return res, evs
	}

	res1, evs1 := capture(Random(42))
	res2, evs2 := capture(Random(42))
	if res1.Outcome != res2.Outcome || len(evs1) != len(evs2) {
		t.Fatalf("same seed diverged: %q/%d vs %q/%d", res1.Outcome, len(evs1), res2.Outcome, len(evs2))
	}
	for i := range evs1 {
		if evs1[i] != evs2[i] {
			t.Fatalf("event %d differs: %v vs %v", i, &evs1[i], &evs2[i])
		}
	}

	// Replay the recorded schedule.
	res3, evs3 := capture(&FixedSchedule{Decisions: res1.Schedule})
	if res3.Diverged {
		t.Fatalf("replay diverged: %v", res3)
	}
	if res3.Outcome != res1.Outcome || len(evs3) != len(evs1) {
		t.Fatalf("replay mismatch: %q/%d vs %q/%d", res3.Outcome, len(evs3), res1.Outcome, len(evs1))
	}
	for i := range evs1 {
		if evs1[i] != evs3[i] {
			t.Fatalf("replayed event %d differs: %v vs %v", i, &evs1[i], &evs3[i])
		}
	}
}

// TestMisuseRecursiveLock checks that runtime misuse is a failure, not
// a hang.
func TestMisuseRecursiveLock(t *testing.T) {
	res := Run(Config{}, func(ct core.T) {
		mu := ct.NewMutex("mu")
		mu.Lock(ct)
		mu.Lock(ct)
	})
	if res.Verdict != core.VerdictFail {
		t.Fatalf("verdict = %v, want fail", res.Verdict)
	}
}

// TestRWMutex checks reader sharing and writer exclusion.
func TestRWMutex(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res := Run(Config{Strategy: Random(seed)}, func(ct core.T) {
			rw := ct.NewRWMutex("rw")
			readers := ct.NewInt("readers", 0)
			writing := ct.NewInt("writing", 0)
			var hs []core.Handle
			for i := 0; i < 2; i++ {
				hs = append(hs, ct.Go("r", func(wt core.T) {
					rw.RLock(wt)
					readers.Add(wt, 1)
					wt.Assert(writing.Load(wt) == 0, "reader overlaps writer")
					readers.Add(wt, -1)
					rw.RUnlock(wt)
				}))
			}
			hs = append(hs, ct.Go("w", func(wt core.T) {
				rw.Lock(wt)
				writing.Store(wt, 1)
				wt.Assert(readers.Load(wt) == 0, "writer overlaps reader")
				writing.Store(wt, 0)
				rw.Unlock(wt)
			}))
			for _, h := range hs {
				h.Join(ct)
			}
		})
		if res.Verdict != core.VerdictPass {
			t.Fatalf("seed %d: %v (%v)", seed, res.Verdict, res)
		}
	}
}

// TestOutcomeAndFinishOrder checks outcome fragments accumulate in
// emission order.
func TestOutcomeAndFinishOrder(t *testing.T) {
	res := Run(Config{}, func(ct core.T) {
		ct.Outcome("a=%d", 1)
		ct.Outcome("b=%d", 2)
	})
	if res.Outcome != "a=1;b=2" {
		t.Fatalf("outcome = %q", res.Outcome)
	}
}

// TestProgramPanicBecomesFailure checks foreign panics in program code
// are captured as failures rather than crashing the harness.
func TestProgramPanicBecomesFailure(t *testing.T) {
	res := Run(Config{}, func(ct core.T) {
		var p *int
		_ = *p //nolint — deliberate nil dereference
	})
	if res.Verdict != core.VerdictFail {
		t.Fatalf("verdict = %v, want fail", res.Verdict)
	}
}

// TestIdleSchedulingReplayable: schedules containing IdleID decisions
// (time warps) replay exactly, so timing bugs found by idle-noise are
// reproducible like any other.
func TestIdleSchedulingReplayable(t *testing.T) {
	body := func(ct core.T) {
		x := ct.NewInt("x", 0)
		h := ct.Go("late", func(wt core.T) {
			wt.Sleep(5 * time.Millisecond)
			x.Store(wt, 1)
		})
		// Main races the sleeper: what it reads depends on whether the
		// strategy lets the timer expire first.
		ct.Yield()
		ct.Outcome("x=%d", x.Load(ct))
		h.Join(ct)
	}
	// A strategy that idles whenever possible.
	idler := &idleFirst{}
	res := Run(Config{Strategy: idler, RecordSchedule: true}, body)
	if res.Outcome != "x=1" {
		t.Fatalf("idling strategy outcome = %q, want x=1 (timer expired first)", res.Outcome)
	}
	hasIdle := false
	for _, d := range res.Schedule {
		if d == IdleID {
			hasIdle = true
		}
	}
	if !hasIdle {
		t.Fatal("no idle decision recorded")
	}
	rep := Run(Config{Strategy: &FixedSchedule{Decisions: res.Schedule}}, body)
	if rep.Diverged || rep.Outcome != res.Outcome {
		t.Fatalf("idle replay mismatch: %v", rep)
	}

	// The baseline never idles and reads 0.
	base := Run(Config{}, body)
	if base.Outcome != "x=0" {
		t.Fatalf("baseline outcome = %q, want x=0", base.Outcome)
	}
}

// idleFirst lets every spawned thread run up to its timer (highest id
// first) and then expires pending timers before anyone else runs.
type idleFirst struct{}

func (idleFirst) Name() string { return "idlefirst" }
func (idleFirst) Pick(c *Choice) core.ThreadID {
	if c.CanIdle {
		return IdleID
	}
	return c.Runnable[len(c.Runnable)-1]
}

// TestRandomDispatchRunsToBlock pins RandomWhenBlocked semantics: the
// current thread is never preempted while runnable.
func TestRandomDispatchRunsToBlock(t *testing.T) {
	var switches, points int
	last := core.NoThread
	tracker := ListenerStrategy{
		Strategy: RandomWhenBlocked(7),
		Hook: func(c *Choice, picked core.ThreadID) {
			points++
			if last != core.NoThread && picked != last && slices.Contains(c.Runnable, last) {
				switches++ // preemption: switched away from a runnable current
			}
			last = picked
		},
	}
	Run(Config{Strategy: &tracker}, func(ct core.T) {
		x := ct.NewInt("x", 0)
		h := ct.Go("w", func(wt core.T) {
			for i := 0; i < 5; i++ {
				x.Add(wt, 1)
			}
		})
		for i := 0; i < 5; i++ {
			x.Add(ct, 1)
		}
		h.Join(ct)
	})
	if points == 0 {
		t.Fatal("no decisions observed")
	}
	if switches != 0 {
		t.Fatalf("random dispatch preempted a runnable thread %d times", switches)
	}
}

// countingStrategy picks a deliberately non-runnable thread after a
// few decisions, simulating a buggy Strategy implementation.
type badPickStrategy struct{ picks int }

func (b *badPickStrategy) Name() string { return "bad-pick" }
func (b *badPickStrategy) Pick(c *Choice) core.ThreadID {
	b.picks++
	if b.picks > 3 {
		return core.ThreadID(99) // never runnable
	}
	return c.Runnable[0]
}

// TestStrategyBugPanicsLoudly pins the engine-bug contract after the
// direct-handoff rewrite: scheduling decisions now execute on
// virtual-thread goroutines, under the same recover that converts
// program panics into failed runs — but a Strategy returning a
// non-runnable thread must still panic out of Run (silently counting
// it as a program bug would skew every statistic built on top).
func TestStrategyBugPanicsLoudly(t *testing.T) {
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("buggy strategy did not panic out of Run")
		}
		if msg := fmt.Sprint(rec); !strings.Contains(msg, "picked non-runnable thread") {
			t.Fatalf("unexpected panic payload: %v", rec)
		}
	}()
	Run(Config{Strategy: &badPickStrategy{}}, func(ct core.T) {
		x := ct.NewInt("x", 0)
		h := ct.Go("w", func(wt core.T) { x.Add(wt, 1) })
		h.Join(ct)
	})
	t.Fatal("Run returned a result for a buggy strategy")
}

// TestMisuseFailureKeepsLocation pins that lock-misuse oracles report
// their program location even in listener-free runs, where the
// scheduler otherwise skips per-operation location capture: the
// location is part of BugSignature, so losing it would collapse
// distinct misuse sites into one deduplicated bug.
func TestMisuseFailureKeepsLocation(t *testing.T) {
	res := Run(Config{}, func(ct core.T) {
		mu := ct.NewMutex("mu")
		mu.Unlock(ct) // not held: misuse failure
	})
	if res.Verdict != core.VerdictFail || res.Failure == nil {
		t.Fatalf("verdict = %v, want misuse failure", res.Verdict)
	}
	if res.Failure.Loc.File == "" {
		t.Fatalf("misuse failure lost its location: %+v", res.Failure)
	}
}

// TestFailEventCarriesLocID: the OpFail event an Assert or Failf emits
// carries the program-point handle of its call site, the one
// core.InternLocKey gives for the failure's file and line, so a
// coverage listener need not re-intern it.
func TestFailEventCarriesLocID(t *testing.T) {
	for name, body := range map[string]func(core.T){
		"Assert": func(ct core.T) { ct.Assert(false, "assert") },
		"Failf":  func(ct core.T) { ct.Failf("failf %d", 1) },
	} {
		var fails []core.Event
		res := Run(Config{Listeners: []core.Listener{core.ListenerFunc(func(ev *core.Event) {
			if ev.Op == core.OpFail {
				fails = append(fails, *ev)
			}
		})}}, body)
		if res.Failure == nil || len(fails) != 1 {
			t.Fatalf("%s: failure %+v, %d OpFail events", name, res.Failure, len(fails))
		}
		ev := fails[0]
		want := core.InternLocKey(ev.Loc.File, ev.Loc.Line)
		if ev.LocID == 0 || ev.LocID != want || ev.Loc != res.Failure.Loc {
			t.Fatalf("%s: OpFail at %v has LocID %d, want %d (failure at %v)", name, ev.Loc, ev.LocID, want, res.Failure.Loc)
		}
	}
}
