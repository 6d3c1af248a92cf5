package replay

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mtbench/internal/core"
	"mtbench/internal/native"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// contended is a program whose outcome depends on the interleaving:
// the final value of x reveals the order of the two read-modify-write
// sequences.
func contended(ct core.T) {
	x := ct.NewInt("x", 0)
	h1 := ct.Go("a", func(wt core.T) {
		v := x.Load(wt)
		wt.Yield()
		x.Store(wt, v*2+1)
	})
	h2 := ct.Go("b", func(wt core.T) {
		v := x.Load(wt)
		wt.Yield()
		x.Store(wt, v*2+2)
	})
	h1.Join(ct)
	h2.Join(ct)
	ct.Outcome("x=%d", x.Load(ct))
}

func TestScheduleSaveLoad(t *testing.T) {
	s := &Schedule{
		Program:   "p",
		Mode:      "controlled",
		Seed:      7,
		Strategy:  "random",
		Decisions: []core.ThreadID{0, 1, 2, 1, 0},
		Order:     []Point{{Thread: 1, Op: "lock", Name: "mu"}},
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != "p" || got.Seed != 7 || len(got.Decisions) != 5 || len(got.Order) != 1 {
		t.Fatalf("loaded = %+v", got)
	}
}

// TestLoadRejectsTrailingData: whitespace may follow a schedule, any
// other data is refused with the byte offset where the schedule ended.
func TestLoadRejectsTrailingData(t *testing.T) {
	const sched = `{"version":1,"program":"account","mode":"controlled","decisions":[0]}`
	for _, tail := range []string{"", "\n", " \r\n\t\n"} {
		if _, err := Load(strings.NewReader(sched + tail)); err != nil {
			t.Errorf("tail %q: %v", tail, err)
		}
	}
	for _, tail := range []string{"\nnot a schedule\n", `{"version":1}`, "\n]", "\n0"} {
		_, err := Load(strings.NewReader(sched + tail))
		if want := fmt.Sprintf("ends at byte %d", len(sched)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("tail %q: err = %v, want one naming %q", tail, err, want)
		}
	}
}

// TestControlledReplayExact records runs under many random seeds and
// checks every replay reproduces the identical outcome — the
// controlled runtime's headline guarantee.
func TestControlledReplayExact(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		res, s := RecordControlled(sched.Config{Strategy: sched.Random(seed), Seed: seed, Name: "contended"}, contended)
		rep := ReplayControlled(s, sched.Config{}, contended)
		if rep.Diverged {
			t.Fatalf("seed %d: replay diverged", seed)
		}
		if rep.Outcome != res.Outcome || rep.Verdict != res.Verdict {
			t.Fatalf("seed %d: replay %q/%v != recorded %q/%v",
				seed, rep.Outcome, rep.Verdict, res.Outcome, res.Verdict)
		}
	}
}

// TestControlledReplayAllPrograms is the whole-repository round trip:
// every benchmark program, recorded under adversarial random
// scheduling, replays to the identical observable result — verdict,
// outcome, failure signature, finish order and step count. This is the
// substrate guarantee exploration and fuzzing stand on, checked on
// every program instead of a hand-picked few.
func TestControlledReplayAllPrograms(t *testing.T) {
	for _, p := range repository.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			body := p.BodyWith(nil)
			for seed := int64(0); seed < 3; seed++ {
				cfg := sched.Config{
					Strategy: sched.Random(seed),
					Seed:     seed,
					Name:     p.Name,
					MaxSteps: 300_000,
				}
				res, s := RecordControlled(cfg, body)
				rep := ReplayControlled(s, sched.Config{Name: p.Name, MaxSteps: 300_000}, body)
				if rep.Diverged {
					t.Fatalf("seed %d: replay diverged after %d decisions", seed, len(s.Decisions))
				}
				if rep.Verdict != res.Verdict || rep.Outcome != res.Outcome || rep.Steps != res.Steps {
					t.Fatalf("seed %d: replay %v/%q/%d != recorded %v/%q/%d",
						seed, rep.Verdict, rep.Outcome, rep.Steps, res.Verdict, res.Outcome, res.Steps)
				}
				if core.BugSignature(rep) != core.BugSignature(res) {
					t.Fatalf("seed %d: replay signature %q != recorded %q",
						seed, core.BugSignature(rep), core.BugSignature(res))
				}
				if !slices.Equal(rep.FinishOrder, res.FinishOrder) {
					t.Fatalf("seed %d: finish order %v != %v", seed, rep.FinishOrder, res.FinishOrder)
				}
			}
		})
	}
}

// TestControlledReplayDivergenceDetected replays a schedule whose
// first decision names a thread that never exists and expects
// VerdictDiverged, not a wrong answer.
func TestControlledReplayDivergenceDetected(t *testing.T) {
	s := &Schedule{Mode: "controlled", Decisions: []core.ThreadID{5}}
	other := func(ct core.T) {
		x := ct.NewInt("x", 0)
		x.Store(ct, 1) // single-threaded: thread 5 is infeasible
	}
	rep := ReplayControlled(s, sched.Config{}, other)
	if rep.Verdict != core.VerdictDiverged {
		t.Fatalf("verdict = %v, want diverged", rep.Verdict)
	}
}

// TestNativeReplayReproducesOutcome records a native run (full-order
// recording) and replays it under the enforcer; with the recorded
// order enforced, the outcome must match.
func TestNativeReplayReproducesOutcome(t *testing.T) {
	rec := NewRecorder(false)
	res := native.Run(native.Config{
		Timeout:   5 * time.Second,
		Listeners: []core.Listener{rec},
	}, contended)
	if res.Verdict != core.VerdictPass {
		t.Fatalf("record run: %v", res)
	}
	if rec.Len() == 0 {
		t.Fatal("nothing recorded")
	}
	s := rec.Schedule("contended", 0)

	successes := 0
	const tries = 5
	for i := 0; i < tries; i++ {
		enf := NewEnforcer(s)
		enf.Timeout = 2 * time.Second
		rep := native.Run(native.Config{
			Timeout: 10 * time.Second,
			Gate:    enf,
		}, contended)
		div, _ := enf.Diverged()
		if !div && rep.Outcome == res.Outcome {
			successes++
		}
	}
	if successes == 0 {
		t.Fatalf("native replay never reproduced outcome %q", res.Outcome)
	}
}

// TestNativeSyncOnlyRecorderFilters checks the partial recorder keeps
// only sync/lifecycle points.
func TestNativeSyncOnlyRecorderFilters(t *testing.T) {
	rec := NewRecorder(true)
	res := native.Run(native.Config{
		Timeout:   5 * time.Second,
		Listeners: []core.Listener{rec},
	}, func(ct core.T) {
		mu := ct.NewMutex("mu")
		x := ct.NewInt("x", 0)
		h := ct.Go("w", func(wt core.T) {
			mu.Lock(wt)
			x.Add(wt, 1)
			mu.Unlock(wt)
		})
		mu.Lock(ct)
		x.Add(ct, 1)
		mu.Unlock(ct)
		h.Join(ct)
	})
	if res.Verdict != core.VerdictPass {
		t.Fatalf("run: %v", res)
	}
	for _, p := range rec.points {
		if p.Op == "read" || p.Op == "write" {
			t.Fatalf("sync-only recorder captured access %+v", p)
		}
	}
	if rec.Len() == 0 {
		t.Fatal("nothing recorded")
	}
}

// TestEnforcerDivergenceTimesOut feeds the enforcer an infeasible
// schedule and checks it reports divergence promptly instead of
// hanging the run.
func TestEnforcerDivergenceTimesOut(t *testing.T) {
	// A schedule demanding an op from a thread that never exists.
	s := &Schedule{Mode: "native", Order: []Point{{Thread: 99, Op: "write", Name: "ghost"}}}
	enf := NewEnforcer(s)
	enf.Timeout = 100 * time.Millisecond
	start := time.Now()
	res := native.Run(native.Config{
		Timeout: 5 * time.Second,
		Gate:    enf,
	}, func(ct core.T) {
		x := ct.NewInt("x", 0)
		x.Store(ct, 1)
	})
	if res.Verdict != core.VerdictPass {
		t.Fatalf("run after divergence: %v", res)
	}
	if div, _ := enf.Diverged(); !div {
		t.Fatal("divergence not reported")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("divergence detection too slow")
	}
}

// TestRecorderReplayFindsBugAgain is the paper's debugging story: a
// bug found once is replayed deterministically in controlled mode.
func TestRecorderReplayFindsBugAgain(t *testing.T) {
	buggy := func(ct core.T) {
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
		ct.Assert(x.Load(ct) == 2, "lost update")
	}
	var failing *Schedule
	for seed := int64(0); seed < 200 && failing == nil; seed++ {
		res, s := RecordControlled(sched.Config{Strategy: sched.Random(seed), Seed: seed}, buggy)
		if res.Verdict == core.VerdictFail {
			failing = s
		}
	}
	if failing == nil {
		t.Fatal("bug never found while recording")
	}
	// The failing schedule must reproduce the failure every time.
	for i := 0; i < 10; i++ {
		rep := ReplayControlled(failing, sched.Config{}, buggy)
		if rep.Verdict != core.VerdictFail {
			t.Fatalf("replay %d: verdict %v, want fail", i, rep.Verdict)
		}
	}
}
