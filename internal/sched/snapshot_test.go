package sched_test

import (
	"slices"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// countListener counts delivered events — the ledger for the
// fast-forward suppression contract (a fast-forwarded run's listeners
// see exactly the events after the restored position).
type countListener struct{ n int }

func (c *countListener) OnEvent(*core.Event) { c.n++ }

// snapshotter wraps a strategy and, at decision at, captures the
// position digest through Choice.SnapshotTo before delegating the
// decision — the capture path the exploration engine uses for branch
// snapshots. When events is set, it also notes how many events that
// listener had seen at the capture point.
type snapshotter struct {
	inner  sched.Strategy
	at     int64
	events *countListener

	snap     sched.Snapshot
	taken    bool
	eventsAt int
}

func (s *snapshotter) Name() string { return "snapshotter:" + s.inner.Name() }

func (s *snapshotter) Pick(c *sched.Choice) core.ThreadID {
	if c.Step == s.at && !s.taken {
		c.SnapshotTo(&s.snap)
		s.taken = true
		if s.events != nil {
			s.eventsAt = s.events.n
		}
	}
	return s.inner.Pick(c)
}

// sameRun reports whether two results agree on everything a run
// produces: verdict, outcome, steps, events, threads, deadlock
// description, finish order and recorded schedule.
func sameRun(a, b *core.Result) bool {
	return a.Verdict == b.Verdict && a.Outcome == b.Outcome &&
		a.Steps == b.Steps && a.Events == b.Events &&
		a.Threads == b.Threads && a.DeadlockInfo == b.DeadlockInfo &&
		slices.Equal(a.FinishOrder, b.FinishOrder) &&
		slices.Equal(a.Schedule, b.Schedule)
}

// TestFastForwardByteIdentical is the fast-forward contract: replaying
// a recorded decision prefix through Config.FastForward (with the
// position digest captured at decision k through Choice.SnapshotTo
// verified via FFCheck) and handing the rest of the run to a replay
// strategy produces a Result byte-identical to the original run —
// verdict, outcome, steps, events, finish order and the full recorded
// schedule — while the listeners see exactly the events the original
// run emitted after the snapshot point. Capturing the snapshot is
// itself invisible: the capturing run is byte-identical to the
// original too. Every repository program is cut at several depths,
// including decision 0 (before any thread has run).
func TestFastForwardByteIdentical(t *testing.T) {
	capture := sched.NewRunner()
	defer capture.Close()
	replay := sched.NewRunner()
	defer replay.Close()

	for _, p := range repository.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			body := p.BodyWith(nil)
			for seed := int64(0); seed < 2; seed++ {
				fullCount := &countListener{}
				full := sched.Run(sched.Config{
					Strategy:       sched.Random(seed),
					Listeners:      []core.Listener{fullCount},
					Name:           p.Name,
					MaxSteps:       300_000,
					RecordSchedule: true,
				}, body)

				for _, k := range []int{0, 1, 5, 20, len(full.Schedule) / 2} {
					if k > len(full.Schedule) {
						continue
					}
					// Replay the recorded schedule, capturing the
					// digest of the position at decision k.
					capCount := &countListener{}
					snapper := &snapshotter{
						inner:  &sched.FixedSchedule{Decisions: full.Schedule},
						at:     int64(k),
						events: capCount,
					}
					captured := capture.Run(sched.Config{
						Strategy:       snapper,
						Listeners:      []core.Listener{capCount},
						Name:           p.Name,
						MaxSteps:       300_000,
						RecordSchedule: true,
					}, body)
					if !sameRun(captured, full) {
						t.Fatalf("seed %d k %d: capturing run %+v != full %+v", seed, k, captured, full)
					}
					if !snapper.taken {
						// The run ended before decision k (k == full
						// schedule length); nothing to snapshot.
						continue
					}
					snap := snapper.snap
					if snap.Steps != int64(k) {
						t.Fatalf("seed %d k %d: snapshot cursor %d", seed, k, snap.Steps)
					}

					// Fast-forward a fresh run to the same position and
					// replay the rest of the schedule.
					ffCount := &countListener{}
					ff := replay.Run(sched.Config{
						Strategy:       &sched.FixedSchedule{Decisions: append([]core.ThreadID(nil), full.Schedule[k:]...)},
						Listeners:      []core.Listener{ffCount},
						Name:           p.Name,
						MaxSteps:       300_000,
						RecordSchedule: true,
						FastForward:    full.Schedule[:k],
						FFCheck:        &snap,
					}, body)
					if !sameRun(ff, full) {
						t.Fatalf("seed %d k %d: ff %+v != full %+v", seed, k, ff, full)
					}
					// Event conservation: the capturing run had seen
					// the first k decisions' events at the snapshot, the
					// fast-forwarded run saw the rest.
					if snapper.eventsAt+ffCount.n != fullCount.n {
						t.Fatalf("seed %d k %d: event split %d+%d != full %d",
							seed, k, snapper.eventsAt, ffCount.n, fullCount.n)
					}
				}
			}
		})
	}
}

// TestFastForwardDivergence pins the two failure modes of restoring a
// position: a tampered digest (the model state does not match the
// snapshot) and a prefix the program cannot follow both yield
// VerdictDiverged rather than a panic or a silent wrong-state run.
func TestFastForwardDivergence(t *testing.T) {
	prog, err := repository.Get("account")
	if err != nil {
		t.Fatal(err)
	}
	body := prog.BodyWith(nil)
	full := sched.Run(sched.Config{Strategy: sched.Random(1), MaxSteps: 300_000, RecordSchedule: true}, body)
	if len(full.Schedule) < 8 {
		t.Fatalf("schedule too short: %d", len(full.Schedule))
	}
	k := 6

	snapper := &snapshotter{inner: &sched.FixedSchedule{Decisions: full.Schedule}, at: int64(k)}
	sched.Run(sched.Config{Strategy: snapper, MaxSteps: 300_000, RecordSchedule: true}, body)
	if !snapper.taken {
		t.Fatal("capture run completed before the snapshot depth")
	}

	runner := sched.NewRunner()
	defer runner.Close()

	tampered := snapper.snap
	tampered.Sum ^= 1
	res := runner.Run(sched.Config{
		Strategy:    &sched.FixedSchedule{Decisions: append([]core.ThreadID(nil), full.Schedule[k:]...)},
		MaxSteps:    300_000,
		FastForward: full.Schedule[:k],
		FFCheck:     &tampered,
	}, body)
	if res.Verdict != core.VerdictDiverged {
		t.Fatalf("tampered digest: verdict %v, want diverged", res.Verdict)
	}

	bad := append([]core.ThreadID(nil), full.Schedule[:k]...)
	bad[k-1] = 99 // no such thread
	res = runner.Run(sched.Config{
		Strategy:    sched.Nonpreemptive(),
		MaxSteps:    300_000,
		FastForward: bad,
	}, body)
	if res.Verdict != core.VerdictDiverged {
		t.Fatalf("bad prefix: verdict %v, want diverged", res.Verdict)
	}

	// A healthy runner after diverged runs: same pooled runner completes
	// a normal run byte-identically to a fresh one.
	fresh := sched.Run(sched.Config{Strategy: sched.Random(3), MaxSteps: 300_000}, body)
	after := runner.Run(sched.Config{Strategy: sched.Random(3), MaxSteps: 300_000}, body)
	if after.Verdict != fresh.Verdict || after.Outcome != fresh.Outcome || after.Steps != fresh.Steps {
		t.Fatalf("post-divergence run %+v != fresh %+v", after, fresh)
	}
}

// multiSnapshotter wraps a strategy and captures the position digest
// through Choice.SnapshotTo at every listed decision index of one run,
// before delegating the decision.
type multiSnapshotter struct {
	inner sched.Strategy
	at    map[int64]bool
	snaps map[int64]sched.Snapshot
}

func (m *multiSnapshotter) Name() string { return "multisnapshotter:" + m.inner.Name() }

func (m *multiSnapshotter) Pick(c *sched.Choice) core.ThreadID {
	if m.at[c.Step] {
		var snap sched.Snapshot
		c.SnapshotTo(&snap)
		m.snaps[c.Step] = snap
	}
	return m.inner.Pick(c)
}

// TestParkResume is the suspend-and-resume contract of branch
// snapshots: parking a live run's position at several decision points
// (decision 0, before any thread has run, included) leaves that run
// byte-identical to the same strategy run without interruption, and
// resuming from each parked position later — fast-forwarding the
// recorded prefix on the same pooled runner, verified against the
// parked digest — completes with the same verdict, outcome, steps,
// events, finish order and recorded schedule. Every repository program
// is parked and resumed.
func TestParkResume(t *testing.T) {
	runner := sched.NewRunner()
	defer runner.Close()

	for _, p := range repository.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			body := p.BodyWith(nil)
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
				fresh := sched.Run(cfg(sched.Random(seed)), body)
				parker := &multiSnapshotter{
					inner: sched.Random(seed),
					at:    map[int64]bool{0: true, 3: true, 17: true},
					snaps: map[int64]sched.Snapshot{},
				}
				// Start's Result is pooled; compare before the next run.
				if parked := runner.Start(cfg(parker), body); !sameRun(parked, fresh) {
					t.Fatalf("seed %d: parking run %+v != fresh %+v", seed, parked, fresh)
				}
				if len(parker.snaps) == 0 {
					t.Fatalf("seed %d: run never parked", seed)
				}
				for k, snap := range parker.snaps {
					if snap.Steps != k {
						t.Fatalf("seed %d k %d: snapshot cursor %d", seed, k, snap.Steps)
					}
					rc := cfg(&sched.FixedSchedule{Decisions: append([]core.ThreadID(nil), fresh.Schedule[k:]...)})
					rc.FastForward = fresh.Schedule[:k]
					rc.FFCheck = &snap
					if resumed := runner.Start(rc, body); !sameRun(resumed, fresh) {
						t.Fatalf("seed %d k %d: resumed %+v != fresh %+v", seed, k, resumed, fresh)
					}
				}
			}
		})
	}
}
