package strategies

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// TestStrategyTable pins the table's contract: every entry is
// deterministic per seed, bad names and parameters are errors, and the
// pct entry samples over the run it is in — on default account it
// exposes the lost update, which a horizon far past account's run
// length never does.
func TestStrategyTable(t *testing.T) {
	prog, err := repository.Get("account")
	if err != nil {
		t.Fatal(err)
	}
	body := prog.BodyWith(nil)
	run := func(f Factory, seed int64) *core.Result {
		return sched.Run(sched.Config{
			Strategy: f(seed), Seed: seed, Name: prog.Name,
			MaxSteps: 1_000_000, Plan: prog.Plan, RecordSchedule: true,
		}, body)
	}

	names := strings.Split(Usage(), " | ")
	want := []string{"baseline", "dispatch", "noise", "pct", "random", "roundrobin"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("table names %v, want %v", names, want)
	}
	for _, name := range names {
		a, errA := New(name, Params{P: 0.4})
		b, errB := New(name, Params{P: 0.4})
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", name, errA, errB)
		}
		for seed := int64(0); seed < 5; seed++ {
			if ra, rb := run(a, seed), run(b, seed); !reflect.DeepEqual(ra.Schedule, rb.Schedule) {
				t.Errorf("%s: seed %d gave two different schedules", name, seed)
			}
		}
	}

	for _, bad := range []struct {
		name string
		p    Params
	}{
		{"bogus", Params{}},
		{"noise", Params{P: -0.1}},
		{"noise", Params{P: 1.5}},
		{"noise", Params{P: math.NaN()}},
		{"noise", Params{P: 0.4, Kind: "bogus"}},
	} {
		if _, err := New(bad.name, bad.p); err == nil {
			t.Errorf("New(%q, %+v) succeeded, want an error", bad.name, bad.p)
		}
	}

	f, err := New("pct", Params{})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for seed := int64(0); seed < 50; seed++ {
		if run(f, seed).Verdict.Bug() {
			found++
		}
	}
	t.Logf("pct exposed account's bug in %d/50 runs", found)
	if found < 8 {
		t.Errorf("pct exposed account's bug in %d/50 runs, want at least 8", found)
	}
}

// runRecord is what reuse must not change about a run: its verdict,
// outcome and executed schedule.
type runRecord struct {
	verdict  core.Verdict
	outcome  string
	schedule []core.ThreadID
}

// recordRun runs prog once under st and keeps what reuse must not
// change.
func recordRun(r *sched.Runner, prog *repository.Program, st sched.Strategy, seed int64) runRecord {
	res := r.Start(sched.Config{
		Strategy: st, Seed: seed, Name: prog.Name,
		MaxSteps: 100_000, Plan: prog.Plan, RecordSchedule: true,
	}, prog.BodyWith(nil))
	return runRecord{res.Verdict, res.Outcome, slices.Clone(res.Schedule)}
}

// TestReusedFactoryMatchesFresh pins in-place reuse: over every
// repository program and 50 seeds, one factory per entry, reseeding
// its strategy run after run, records the same schedules and verdicts
// as a factory built afresh for every seed. pct's factory carries its
// horizon from run to run, so its reference is a second factory driven
// through the same seeds.
func TestReusedFactoryMatchesFresh(t *testing.T) {
	const seeds = 50
	r := sched.NewRunner()
	defer r.Close()
	for _, entry := range []struct {
		name string
		p    Params
	}{
		{"baseline", Params{}},
		{"roundrobin", Params{}},
		{"random", Params{}},
		{"dispatch", Params{}},
		{"noise", Params{P: 0.4}},
		{"noise", Params{P: 0.4, Kind: "sleep"}},
		{"noise", Params{P: 0.4, Kind: "mixed"}},
		{"pct", Params{}},
	} {
		for _, prog := range repository.All() {
			reused, _ := New(entry.name, entry.p)
			pctRef, _ := New(entry.name, entry.p)
			for seed := int64(0); seed < seeds; seed++ {
				ref := pctRef
				if entry.name != "pct" {
					ref, _ = New(entry.name, entry.p)
				}
				want := recordRun(r, prog, ref(seed), seed)
				got := recordRun(r, prog, reused(seed), seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v on %s, seed %d: reused factory ran %v %q (%d decisions), fresh %v %q (%d decisions)",
						entry.name, entry.p, prog.Name, seed, got.verdict, got.outcome, len(got.schedule),
						want.verdict, want.outcome, len(want.schedule))
				}
			}
		}
	}
}

// TestFactoryCallAllocs is the allocation gate on the per-run strategy
// source: after its first call, every entry's factory hands out its
// strategy without allocating.
func TestFactoryCallAllocs(t *testing.T) {
	for _, name := range strings.Split(Usage(), " | ") {
		f, err := New(name, Params{P: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		f(1)
		seed := int64(1)
		if n := testing.AllocsPerRun(100, func() { seed++; f(seed) }); n != 0 {
			t.Errorf("%s: a factory call allocates %.1f objects", name, n)
		}
	}
}
