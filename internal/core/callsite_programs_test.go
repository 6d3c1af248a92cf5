package core_test

import (
	"strings"
	"testing"
	"time"

	"mtbench/internal/core"
	_ "mtbench/internal/genprog"
	"mtbench/internal/native"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// TestCallerLocationIDMatchesCallersPrograms runs every repository
// program (the generated ones included) under a location-reading
// listener three times with the same seed: twice on frame-pointer keys
// (the first run fills the cache, the second only hits) and once on
// logical keys. Every event's Loc and LocID must agree across the
// three, and none may lie inside the runtime. Native runs, which are
// not repeatable, must put every location in a file the controlled
// run's events name, so native's probe depth lands in the program too.
func TestCallerLocationIDMatchesCallersPrograms(t *testing.T) {
	type site struct {
		loc core.Location
		id  uint32
	}
	run := func(p *repository.Program, seed int64, logical bool) []site {
		core.SetLogicalOnly(logical)
		defer core.SetLogicalOnly(false)
		var sites []site
		sched.Run(sched.Config{
			Strategy:  sched.Random(seed),
			Seed:      seed,
			MaxSteps:  300_000,
			Listeners: []core.Listener{core.ListenerFunc(func(ev *core.Event) { sites = append(sites, site{ev.Loc, ev.LocID}) })},
		}, p.BodyWith(nil))
		return sites
	}
	for _, p := range repository.All() {
		t.Run(p.Name, func(t *testing.T) {
			files := map[string]bool{}
			for seed := int64(0); seed < 2; seed++ {
				cold, warm, logical := run(p, seed, false), run(p, seed, false), run(p, seed, true)
				if len(cold) != len(warm) || len(cold) != len(logical) {
					t.Fatalf("seed %d: event counts %d/%d/%d differ", seed, len(cold), len(warm), len(logical))
				}
				for i := range logical {
					if cold[i] != logical[i] || warm[i] != logical[i] {
						t.Fatalf("seed %d event %d: frame-pointer keys gave %v (%d) then %v (%d), logical key %v (%d)",
							seed, i, cold[i].loc, cold[i].id, warm[i].loc, warm[i].id, logical[i].loc, logical[i].id)
					}
					if f := logical[i].loc.File; strings.HasPrefix(f, "sched/") || strings.HasPrefix(f, "core/") {
						t.Fatalf("seed %d event %d: location %v is inside the runtime", seed, i, logical[i].loc)
					}
					files[logical[i].loc.File] = true
				}
			}
			for _, logical := range []bool{false, true} {
				core.SetLogicalOnly(logical)
				var stray []string
				native.Run(native.Config{
					Timeout:   100 * time.Millisecond,
					TimeScale: 0.01,
					Listeners: []core.Listener{core.ListenerFunc(func(ev *core.Event) {
						if f := ev.Loc.File; f != "" && !files[f] {
							stray = append(stray, ev.Loc.String())
						}
					})},
				}, p.BodyWith(nil))
				core.SetLogicalOnly(false)
				if len(stray) > 0 {
					t.Fatalf("native run (logical keys %v) reported locations outside the program: %s",
						logical, strings.Join(stray, ", "))
				}
			}
		})
	}
}
