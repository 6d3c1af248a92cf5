// Package cloning implements load testing by cloning (§2.3): take a
// (conceptually sequential) test, run N copies of it simultaneously,
// and interpret each clone's expected result separately. The paper
// calls this "the most commonly used testing technique aimed at
// finding intermittent bugs" — contention is almost guaranteed because
// every clone touches the same resources — and notes it is a black-box
// technique that composes freely with noise or coverage, which is
// exactly how the harness treats it: clones are ordinary threads, so
// every dynamic tool applies unchanged.
package cloning

import (
	"fmt"

	"mtbench/internal/core"
	"mtbench/internal/native"
	"mtbench/internal/sched"
)

// Test is a cloneable test: Body receives the clone index so each
// clone can parameterize its inputs and verify its own expected
// results (the paper's "changes that distinguish between the clones").
type Test struct {
	Name string
	// Setup, if non-nil, runs once in the main thread before the
	// clones start and returns shared state passed to every clone.
	Setup func(t core.T) any
	// Body is the test executed by each clone.
	Body func(t core.T, shared any, clone int)
	// Check, if non-nil, runs in the main thread after every clone
	// finished.
	Check func(t core.T, shared any)
}

// Body builds the program body that runs n clones of the test.
func Body(test Test, n int) func(core.T) {
	return func(t core.T) {
		var shared any
		if test.Setup != nil {
			shared = test.Setup(t)
		}
		handles := make([]core.Handle, n)
		for i := 0; i < n; i++ {
			i := i
			handles[i] = t.Go(fmt.Sprintf("clone-%d", i), func(ct core.T) {
				test.Body(ct, shared, i)
			})
		}
		for _, h := range handles {
			h.Join(t)
		}
		if test.Check != nil {
			test.Check(t, shared)
		}
	}
}

// Controlled runs n clones under the controlled scheduler.
func Controlled(cfg sched.Config, test Test, n int) *core.Result {
	if cfg.Name == "" {
		cfg.Name = "clone:" + test.Name
	}
	return sched.Run(cfg, Body(test, n))
}

// Native runs n clones on real goroutines.
func Native(cfg native.Config, test Test, n int) *core.Result {
	if cfg.Name == "" {
		cfg.Name = "clone:" + test.Name
	}
	return native.Run(cfg, Body(test, n))
}

// Reserve returns the benchmark's canonical cloneable test: each clone
// plays a client reserving one unit from shared stock, and the
// server's check-then-decrement is non-atomic, so enough concurrent
// clones oversell it. One clone is a perfectly healthy sequential test
// — the paper's point about cloning being a black-box way to buy
// contention.
func Reserve(stock int64) Test {
	return Test{
		Name: "reserve",
		Setup: func(t core.T) any {
			return t.NewInt("stock", stock)
		},
		Body: func(t core.T, shared any, clone int) {
			s := shared.(core.IntVar)
			if s.Load(t) > 0 {
				t.Yield() // the check-then-act window
				s.Store(t, s.Load(t)-1)
			}
		},
		Check: func(t core.T, shared any) {
			s := shared.(core.IntVar)
			t.Assert(s.Load(t) >= 0, "oversold: stock=%d", s.Load(t))
		},
	}
}
