package strategies

import (
	"math"
	"reflect"
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
