package sched_test

import (
	"slices"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// coaster delegates to inner until decision k, then returns CoastID.
type coaster struct {
	inner sched.Strategy
	at    int64
}

func (c *coaster) Name() string { return "coaster" }

func (c *coaster) Pick(ch *sched.Choice) core.ThreadID {
	if ch.Step >= c.at {
		return sched.CoastID
	}
	return c.inner.Pick(ch)
}

// switcher delegates to inner until decision k, then follows the
// nonpreemptive rule explicitly — the reference behavior CoastID must
// reproduce.
type switcher struct {
	inner sched.Strategy
	at    int64
	np    sched.Strategy
}

func (s *switcher) Name() string { return "switcher" }

func (s *switcher) Pick(ch *sched.Choice) core.ThreadID {
	if ch.Step >= s.at {
		return s.np.Pick(ch)
	}
	return s.inner.Pick(ch)
}

// TestCoast checks the CoastID contract: handing the tail of a run to
// the scheduler's built-in nonpreemptive rule produces exactly the
// verdict, outcome, step count, event count and finish order that an
// explicit nonpreemptive fallback strategy produces, while the
// recorded schedule stops at the coast point.
func TestCoast(t *testing.T) {
	runner := sched.NewRunner()
	defer runner.Close()

	for _, p := range repository.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			body := p.BodyWith(nil)
			for _, at := range []int64{0, 1, 6, 25} {
				for seed := int64(0); seed < 2; seed++ {
					cfg := func(st sched.Strategy) sched.Config {
						return sched.Config{
							Strategy:       st,
							Seed:           seed,
							Name:           p.Name,
							MaxSteps:       300_000,
							RecordSchedule: true,
						}
					}
					ref := sched.Run(cfg(&switcher{inner: sched.Random(seed), at: at, np: sched.Nonpreemptive()}), body)
					coast := runner.Run(cfg(&coaster{inner: sched.Random(seed), at: at}), body)
					if coast.Verdict != ref.Verdict || coast.Outcome != ref.Outcome ||
						coast.Steps != ref.Steps || coast.Events != ref.Events ||
						coast.Threads != ref.Threads || coast.DeadlockInfo != ref.DeadlockInfo {
						t.Fatalf("at %d seed %d: coast %v != ref %v", at, seed, coast, ref)
					}
					if !slices.Equal(coast.FinishOrder, ref.FinishOrder) {
						t.Fatalf("at %d seed %d: finish order %v != %v", at, seed, coast.FinishOrder, ref.FinishOrder)
					}
					wantSched := ref.Schedule
					if int64(len(wantSched)) > at {
						wantSched = wantSched[:at]
					}
					if !slices.Equal(coast.Schedule, wantSched) {
						t.Fatalf("at %d seed %d: coast schedule %d decisions, want %d",
							at, seed, len(coast.Schedule), len(wantSched))
					}
				}
			}
		})
	}
}
