package noise

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

func point(op core.Op, name, locKey string) *Point {
	return &Point{Op: op, Name: name, Loc: core.Location{File: locKey, Line: 1}}
}

func TestNoneNeverPerturbs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := None()
	for i := 0; i < 100; i++ {
		if h.Decide(point(core.OpRead, "x", "f"), rng).Noisy() {
			t.Fatal("None perturbed")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := NewBernoulli(0.3, KindYield)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if h.Decide(point(core.OpRead, "x", "f"), rng).Noisy() {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("rate = %.3f, want ~0.3", rate)
	}
}

func TestBernoulliOpFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := SyncNoise(1.0)
	if !h.Decide(point(core.OpLock, "mu", "f"), rng).Noisy() {
		t.Fatal("sync noise skipped a lock op")
	}
	if h.Decide(point(core.OpRead, "x", "f"), rng).Noisy() {
		t.Fatal("sync noise perturbed a read")
	}
}

func TestStatisticalDecays(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := NewStatistical(1.0, 0.5)
	// First decision at a fresh location must fire (base prob 1.0).
	if !h.Decide(point(core.OpRead, "x", "hot.go"), rng).Noisy() {
		t.Fatal("fresh location not perturbed at base=1.0")
	}
	// After many hits the same location's rate must collapse.
	hits := 0
	for i := 0; i < 1000; i++ {
		if h.Decide(point(core.OpRead, "x", "hot.go"), rng).Noisy() {
			hits++
		}
	}
	if hits > 30 {
		t.Fatalf("hot location still perturbed %d/1000 times", hits)
	}
	// A fresh location still fires.
	if !h.Decide(point(core.OpRead, "y", "cold.go"), rng).Noisy() {
		t.Fatal("cold location not perturbed")
	}
}

func TestCoverageDirectedPrefersRareTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := NewCoverageDirected(1.0)
	if !h.Decide(point(core.OpWrite, "v", "a.go"), rng).Noisy() {
		t.Fatal("uncovered task not perturbed at base=1.0")
	}
	hot := 0
	for i := 0; i < 500; i++ {
		if h.Decide(point(core.OpWrite, "v", "a.go"), rng).Noisy() {
			hot++
		}
	}
	if hot > 60 {
		t.Fatalf("covered task still perturbed %d/500 times", hot)
	}
}

// TestStrategyFindsLostUpdate is the noise maker's reason to exist: the
// nonpreemptive baseline never exposes the canonical lost update, and
// the same baseline wrapped with Bernoulli noise does.
func TestStrategyFindsLostUpdate(t *testing.T) {
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
		ct.Assert(x.Load(ct) == 2, "lost update")
	}

	baselineFound := 0
	noiseFound := 0
	const tries = 60
	for seed := int64(0); seed < tries; seed++ {
		if res := sched.Run(sched.Config{Strategy: sched.Nonpreemptive()}, body); res.Verdict.Bug() {
			baselineFound++
		}
		st := NewStrategy(nil, NewBernoulli(0.5, KindYield), seed)
		if res := sched.Run(sched.Config{Strategy: st}, body); res.Verdict.Bug() {
			noiseFound++
		}
	}
	if baselineFound != 0 {
		t.Fatalf("baseline found the bug %d times; it must be deterministic-blind", baselineFound)
	}
	if noiseFound == 0 {
		t.Fatal("noise never found the lost update")
	}
}

// TestStrategyDeterministicPerSeed checks that a noise strategy with a
// fixed seed reproduces the same schedule (required for the statistics
// scripts to be rerunnable).
func TestStrategyDeterministicPerSeed(t *testing.T) {
	body := func(ct core.T) {
		x := ct.NewInt("x", 0)
		h1 := ct.Go("a", func(wt core.T) {
			v := x.Load(wt)
			x.Store(wt, v+1)
		})
		h2 := ct.Go("b", func(wt core.T) {
			v := x.Load(wt)
			x.Store(wt, v+2)
		})
		h1.Join(ct)
		h2.Join(ct)
		ct.Outcome("x=%d", x.Load(ct))
	}
	run := func(seed int64) string {
		st := NewStrategy(nil, NewBernoulli(0.5, KindYield), seed)
		return sched.Run(sched.Config{Strategy: st}, body).Outcome
	}
	for seed := int64(0); seed < 10; seed++ {
		if a, b := run(seed), run(seed); a != b {
			t.Fatalf("seed %d not deterministic: %q vs %q", seed, a, b)
		}
	}
}

// TestStrategyStats checks perturbation accounting, also for a
// factory's reseeded strategy, which counts from zero again.
func TestStrategyStats(t *testing.T) {
	body := func(ct core.T) {
		x := ct.NewInt("x", 0)
		h := ct.Go("w", func(wt core.T) { x.Add(wt, 1) })
		for i := 0; i < 5; i++ {
			x.Add(ct, 1)
		}
		h.Join(ct)
	}
	st := NewStrategy(nil, NewBernoulli(1.0, KindYield), 1)
	sched.Run(sched.Config{Strategy: st}, body)
	dec, per := st.Stats()
	if dec == 0 || per == 0 {
		t.Fatalf("stats not collected: decisions=%d perturbations=%d", dec, per)
	}
	if per > dec {
		t.Fatalf("perturbations %d > decisions %d", per, dec)
	}
	next := NewFactory(NewBernoulli(1.0, KindYield))
	for run := 0; run < 2; run++ {
		st := next(1).(*Strategy)
		sched.Run(sched.Config{Strategy: st}, body)
		if d, p := st.Stats(); d != dec || p != per {
			t.Fatalf("factory run %d: stats %d/%d, a fresh strategy's %d/%d", run, d, p, dec, per)
		}
	}
}

// locReader is a listener that reads every event's location, which
// keeps the scheduler's location capture on for the run.
type locReader struct{ located int }

func (l *locReader) OnEvent(ev *core.Event) {
	if ev.Loc.File != "" {
		l.located++
	}
}

// locHeuristic is a heuristic without a NeedsLocations method that
// records whether it saw a location at every point.
type locHeuristic struct{ points, located int }

func (*locHeuristic) Name() string { return "loc-probe" }

func (h *locHeuristic) Decide(p *Point, rng *rand.Rand) Decision {
	h.points++
	if p.Loc.File != "" {
		h.located++
	}
	return Decision{}
}

// TestLocationCaptureOptOut checks the heuristics' location opt-out:
// Bernoulli never reads Point.Loc, so its listener-free runs skip
// location capture, and a run with capture forced on by a
// location-reading listener takes the same decisions and reaches the
// same verdict and bug signature (failure locations are resolved when
// the failure happens, capture or not). Location-keyed heuristics, and
// heuristics that do not declare themselves, keep seeing locations.
func TestLocationCaptureOptOut(t *testing.T) {
	body := func(ct core.T) {
		x := ct.NewInt("x", 0)
		mu := ct.NewMutex("mu")
		h := ct.Go("a", func(wt core.T) {
			mu.Lock(wt)
			v := x.Load(wt)
			x.Store(wt, v+1)
			mu.Unlock(wt)
		})
		v := x.Load(ct)
		x.Store(ct, v+1)
		h.Join(ct)
		ct.Assert(x.Load(ct) == 2, "lost update")
	}
	for _, h := range []Heuristic{None(), NewBernoulli(0.5, KindYield), SyncNoise(0.5)} {
		if NewStrategy(nil, h, 1).NeedsLocations() {
			t.Errorf("%s: noise strategy asks for location capture", h.Name())
		}
	}
	bugs := 0
	for seed := int64(0); seed < 40; seed++ {
		off := NewStrategy(nil, NewBernoulli(0.5, KindYield), seed)
		resOff := sched.Run(sched.Config{Strategy: off}, body)
		on := NewStrategy(nil, NewBernoulli(0.5, KindYield), seed)
		l := &locReader{}
		resOn := sched.Run(sched.Config{Strategy: on, Listeners: []core.Listener{l}}, body)
		if l.located == 0 {
			t.Fatalf("seed %d: the listener saw no locations; capture was not on", seed)
		}
		if !slices.Equal(resOff.Schedule, resOn.Schedule) {
			t.Fatalf("seed %d: decisions differ with capture on:\n off %v\n on  %v", seed, resOff.Schedule, resOn.Schedule)
		}
		if resOff.Verdict != resOn.Verdict {
			t.Fatalf("seed %d: verdict %v with capture off, %v on", seed, resOff.Verdict, resOn.Verdict)
		}
		if a, b := core.BugSignature(resOff), core.BugSignature(resOn); a != b {
			t.Fatalf("seed %d: bug signature %q with capture off, %q on", seed, a, b)
		}
		da, pa := off.Stats()
		db, pb := on.Stats()
		if da != db || pa != pb {
			t.Fatalf("seed %d: stats (%d, %d) with capture off, (%d, %d) on", seed, da, pa, db, pb)
		}
		if resOff.Verdict.Bug() {
			bugs++
			if resOff.Failure.Loc.File == "" {
				t.Fatalf("seed %d: failure lost its location with capture off: %+v", seed, resOff.Failure)
			}
		}
	}
	if bugs == 0 {
		t.Fatal("no seed found the lost update; the signature comparison checked nothing")
	}

	stat := NewStatistical(1.0, 0.5)
	sched.Run(sched.Config{Strategy: NewStrategy(nil, stat, 1)}, body)
	if len(stat.counts) == 0 {
		t.Fatal("statistical heuristic never perturbed")
	}
	for key := range stat.counts {
		if strings.HasPrefix(key, ":") {
			t.Fatalf("statistical heuristic saw a zero location (key %q)", key)
		}
	}
	probe := &locHeuristic{}
	sched.Run(sched.Config{Strategy: NewStrategy(nil, probe, 1)}, body)
	if probe.points == 0 || probe.located != probe.points {
		t.Fatalf("undeclared heuristic saw locations at %d of %d points", probe.located, probe.points)
	}
}

// TestPickAllocs is the allocation gate on a noise decision: Pick
// hands the heuristic the strategy's own Point, so deciding — noisy or
// not, over the default base or a given one — allocates nothing.
func TestPickAllocs(t *testing.T) {
	pending := sched.PendingOp{Op: core.OpWrite, Name: "x", Loc: core.Location{File: "f.go", Line: 3}}
	c := &sched.Choice{
		Runnable:  []core.ThreadID{0, 1, 2},
		Current:   1,
		PendingOf: func(core.ThreadID) sched.PendingOp { return pending },
	}
	for _, st := range []*Strategy{
		NewStrategy(nil, NewBernoulli(0.5, KindYield), 1),
		NewStrategy(nil, NewBernoulli(1, KindSleep), 2),
		NewStrategy(sched.Nonpreemptive(), SharedVarNoise(0.5), 3),
		NewStrategy(nil, None(), 4),
	} {
		if n := testing.AllocsPerRun(1000, func() { st.Pick(c) }); n != 0 {
			t.Errorf("%s: Pick allocates %.1f objects", st.Name(), n)
		}
	}
}
