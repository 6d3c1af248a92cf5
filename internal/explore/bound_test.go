package explore

import (
	"fmt"
	"reflect"
	"testing"

	"mtbench/internal/repository"
)

func mustProg(t testing.TB, name string) *repository.Program {
	t.Helper()
	prog, err := repository.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// boundedModes are the bounding configurations the equivalence
// contract pins, alone and composed with the reduction layer. Bound 2
// is the campaign default (campaign.DefaultVariableBound /
// DefaultThreadBound); this test is why those defaults are safe for
// the gate programs.
var boundedModes = []struct {
	name string
	set  func(*Options)
}{
	{"vb2", func(o *Options) { o.VariableBound = Bound(2) }},
	{"tb2", func(o *Options) { o.ThreadBound = Bound(2) }},
	{"vb2+tb2", func(o *Options) { o.VariableBound = Bound(2); o.ThreadBound = Bound(2) }},
	{"vb2+dpor+cache", func(o *Options) { o.VariableBound = Bound(2); o.DPOR = true; o.StateCache = true }},
	{"tb2+dpor+cache", func(o *Options) { o.ThreadBound = Bound(2); o.DPOR = true; o.StateCache = true }},
}

// TestBoundedEquivalence pins the bounding portfolio's gate contract:
// on the two benchmark gate programs, variable bounding and thread
// bounding at bound 2 — alone, together, and composed with DPOR and
// the state cache, at any worker count — exhaust their bounded trees
// with exactly the bug set full exploration finds, in strictly fewer
// schedules, and report the cut through the vb_pruned/tb_pruned
// counters. Unlike TestReducedEquivalence this is NOT a soundness
// theorem — bounding deliberately cuts schedules a bug could hide in —
// but an empirical property of the gate programs that the CI
// bounded-smoke job pins through cmd/explore; a new gate program joins
// this list only after its bugs are shown to sit inside the bounded
// space.
func TestBoundedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded exploration sweep in -short mode")
	}
	for _, name := range []string{"philosophers", "account"} {
		prog := mustProg(t, name)
		body := prog.BodyWith(prog.Explorable)
		full := Explore(Options{MaxSchedules: 200_000, Workers: 1}, body)
		if full.Err != nil {
			t.Fatalf("%s: %v", name, full.Err)
		}
		if !full.Exhausted {
			t.Fatalf("%s: full tree did not exhaust (%d schedules)", name, full.Schedules)
		}
		fullBugs := bugKeys(full)

		for _, mode := range boundedModes {
			for _, workers := range []int{1, 8} {
				opts := Options{MaxSchedules: 200_000, Workers: workers}
				mode.set(&opts)
				bd := Explore(opts, body)
				label := fmt.Sprintf("%s/%s/workers=%d", name, mode.name, workers)
				if bd.Err != nil {
					t.Fatalf("%s: %v", label, bd.Err)
				}
				if !bd.Exhausted {
					t.Errorf("%s: bounded search did not exhaust (%d schedules)", label, bd.Schedules)
					continue
				}
				if bb := bugKeys(bd); !reflect.DeepEqual(bb, fullBugs) {
					t.Errorf("%s: bug sets differ\n  full:    %v\n  bounded: %v", label, fullBugs, bb)
				}
				if bd.Schedules >= full.Schedules {
					t.Errorf("%s: bound did not shrink the tree: %d vs full %d", label, bd.Schedules, full.Schedules)
				}
				if pruned := bd.Stats.VBPruned + bd.Stats.TBPruned; pruned <= 0 {
					t.Errorf("%s: no pruned options reported (vb=%d tb=%d)",
						label, bd.Stats.VBPruned, bd.Stats.TBPruned)
				}
				if workers == 1 {
					t.Logf("%s: %d -> %d schedules (%.1f%%) vb_pruned=%d tb_pruned=%d",
						label, full.Schedules, bd.Schedules,
						100*float64(bd.Schedules)/float64(full.Schedules),
						bd.Stats.VBPruned, bd.Stats.TBPruned)
				}
			}
		}
	}
}

// TestBoundStatsInert pins that the bound counters stay zero when no
// bound is set — Stats.VBPruned/TBPruned are pinned JSON fields
// (vb_pruned/tb_pruned in cmd/explore -json), so an unbounded search
// reporting nonzero cuts would be a bookkeeping bug.
func TestBoundStatsInert(t *testing.T) {
	prog := mustProg(t, "account")
	res := Explore(Options{MaxSchedules: 200_000, Workers: 1}, prog.BodyWith(prog.Explorable))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.VBPruned != 0 || res.Stats.TBPruned != 0 {
		t.Errorf("unbounded search reported bound cuts: vb=%d tb=%d",
			res.Stats.VBPruned, res.Stats.TBPruned)
	}
}
