package repository

import (
	"strings"
	"testing"
	"time"

	"mtbench/internal/core"
	"mtbench/internal/explore"
	"mtbench/internal/native"
	"mtbench/internal/noise"
	"mtbench/internal/sched"
)

// TestRegistryIntegrity checks the collection's metadata obligations:
// enough programs, documentation on every entry, ground-truth variables
// on the racy ones.
func TestRegistryIntegrity(t *testing.T) {
	all := All()
	if len(all) < 20 {
		t.Fatalf("repository has %d programs, want >= 20", len(all))
	}
	if len(Buggy()) < 15 {
		t.Fatalf("repository has %d buggy programs, want >= 15", len(Buggy()))
	}
	if len(Correct()) < 4 {
		t.Fatalf("repository has %d correct programs, want >= 4", len(Correct()))
	}
	for _, p := range all {
		if p.Synopsis == "" || p.Doc == "" {
			t.Errorf("%s: missing documentation", p.Name)
		}
		if p.Body == nil {
			t.Errorf("%s: missing body", p.Name)
		}
		if p.Threads < 2 && p.Name != "multiout" {
			t.Errorf("%s: not multi-threaded (%d)", p.Name, p.Threads)
		}
		if p.Kind == KindRace && len(p.BugVars) == 0 {
			t.Errorf("%s: race program without ground-truth BugVars", p.Name)
		}
		if !p.HasBug() && len(p.BugVars) != 0 {
			t.Errorf("%s: correct program with BugVars", p.Name)
		}
	}
	if _, err := Get("account"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("no-such-program"); err == nil {
		t.Fatal("Get of unknown program succeeded")
	}
}

// baselineExpectation is the documented behaviour under the
// deterministic run-to-block scheduler: the paper's §1 claim is that
// unit-test scheduling hides concurrency bugs, and the repository
// makes it measurable. Two programs are documented exceptions.
var baselineExpectation = map[string]core.Verdict{
	"barrier":       core.VerdictDeadlock, // laps deterministically under run-to-block
	"forgottenjoin": core.VerdictFail,     // main wins the race deterministically
}

func TestBaselineBehaviour(t *testing.T) {
	for _, p := range All() {
		res := sched.Run(sched.Config{Name: p.Name}, p.BodyWith(nil))
		want, special := baselineExpectation[p.Name]
		if !special {
			want = core.VerdictPass
		}
		if res.Verdict != want {
			t.Errorf("%s: baseline verdict %v, want %v (%v)", p.Name, res.Verdict, want, res)
		}
	}
}

// TestCorrectProgramsPassUnderAdversity: the defect-free programs must
// pass under heavy random scheduling and noise — any failure would be
// a framework or program bug poisoning the false-alarm accounting.
func TestCorrectProgramsPassUnderAdversity(t *testing.T) {
	for _, p := range Correct() {
		body := p.BodyWith(nil)
		for seed := int64(0); seed < 15; seed++ {
			if res := sched.Run(sched.Config{Strategy: sched.Random(seed), Name: p.Name}, body); res.Verdict != core.VerdictPass {
				t.Fatalf("%s: random seed %d: %v", p.Name, seed, res)
			}
			st := noise.NewStrategy(nil, noise.NewBernoulli(0.4, noise.KindMixed), seed)
			if res := sched.Run(sched.Config{Strategy: st, Name: p.Name}, body); res.Verdict != core.VerdictPass {
				t.Fatalf("%s: noise seed %d: %v", p.Name, seed, res)
			}
		}
	}
}

// finder describes how each documented bug is expected to be found.
type finder struct {
	params Params
	// heuristic for noise-based search (nil = use exploration).
	heuristic func() noise.Heuristic
	seeds     int64
	timeouts  bool // exploration needs timeout branching
}

var finders = map[string]finder{
	"account":         {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 200},
	"wronglock":       {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 200},
	"checkthenact":    {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 200},
	"transfer":        {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 200},
	"dcl":             {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 200},
	"statmax":         {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 200},
	"rwcache":         {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 200},
	"inversion":       {heuristic: func() noise.Heuristic { return noise.SyncNoise(0.5) }, seeds: 200},
	"philosophers":    {heuristic: func() noise.Heuristic { return noise.SyncNoise(0.5) }, seeds: 200},
	"signalnotall":    {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 300},
	"waitnotinloop":   {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 300},
	"workqueue":       {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 300},
	"sleepsync":       {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.5, noise.KindSleep) }, seeds: 300},
	"lostnotify":      {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.5, noise.KindSleep) }, seeds: 300},
	"forgottenjoin":   {heuristic: func() noise.Heuristic { return noise.None() }, seeds: 1},
	"barrier":         {heuristic: func() noise.Heuristic { return noise.None() }, seeds: 1},
	"livelock":        {params: Params{"retries": 4}},
	"bankwithdraw":    {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 200},
	"semaphore":       {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 300},
	"onecond":         {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 400},
	"lazyinit":        {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 200},
	"abastack":        {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 300},
	"semleak":         {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 200},
	"rwupgrade":       {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 200},
	"waitholdinglock": {heuristic: func() noise.Heuristic { return noise.NewBernoulli(0.4, noise.KindYield) }, seeds: 200},
}

// TestEveryBugFindable is the repository's core guarantee: each
// documented bug manifests under some stock tool configuration. Noise
// search for the probabilistic ones, exploration for the ones needing
// a precisely adversarial schedule.
func TestEveryBugFindable(t *testing.T) {
	for _, p := range Buggy() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			f, ok := finders[p.Name]
			if !ok {
				t.Fatalf("no finder registered for %s", p.Name)
			}
			body := p.BodyWith(f.params)
			if f.heuristic == nil {
				res := explore.Explore(explore.Options{
					MaxSchedules:    20000,
					StopAtFirstBug:  true,
					ExploreTimeouts: f.timeouts,
					Name:            p.Name,
				}, body)
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				if len(res.Bugs) == 0 {
					t.Fatalf("exploration missed the bug in %d schedules", res.Schedules)
				}
				return
			}
			for seed := int64(0); seed < f.seeds; seed++ {
				st := noise.NewStrategy(nil, f.heuristic(), seed)
				res := sched.Run(sched.Config{Strategy: st, Name: p.Name, MaxSteps: 200000}, body)
				if res.Verdict.Bug() {
					return
				}
			}
			t.Fatalf("noise never exposed the bug in %d seeds", f.seeds)
		})
	}
}

// TestAnnotatorMarksBugVars checks the trace annotation ground truth.
func TestAnnotatorMarksBugVars(t *testing.T) {
	p, err := Get("account")
	if err != nil {
		t.Fatal(err)
	}
	ann := p.Annotator()
	why, bug := ann(&core.Event{Op: core.OpWrite, Name: "balance"})
	if !bug || why == "" {
		t.Fatalf("balance access not marked: why=%q bug=%v", why, bug)
	}
	_, bug = ann(&core.Event{Op: core.OpWrite, Name: "unrelated"})
	if bug {
		t.Fatal("unrelated variable marked as bug-involved")
	}
}

// TestProgramsRunNatively smoke-tests that repository bodies work on
// the native runtime too: a correct program passes, and a deadlocking
// program times out rather than hanging the suite.
func TestProgramsRunNatively(t *testing.T) {
	locked, err := Get("lockedcounter")
	if err != nil {
		t.Fatal(err)
	}
	res := native.Run(native.Config{Timeout: 5 * time.Second, Name: locked.Name}, locked.BodyWith(nil))
	if res.Verdict != core.VerdictPass {
		t.Fatalf("lockedcounter native: %v", res)
	}

	barrier, err := Get("barrier")
	if err != nil {
		t.Fatal(err)
	}
	res = native.Run(native.Config{Timeout: 1 * time.Second, Name: barrier.Name}, barrier.BodyWith(nil))
	if res.Verdict == core.VerdictPass {
		// The lapping bug is timing-dependent natively; a pass is
		// possible but the run must at least terminate, which reaching
		// this line proves.
		t.Log("barrier passed natively (timing-dependent)")
	}
}

// TestParamsOverride checks BodyWith parameter plumbing.
func TestParamsOverride(t *testing.T) {
	p, err := Get("account")
	if err != nil {
		t.Fatal(err)
	}
	var events int
	res := sched.Run(sched.Config{
		Listeners: []core.Listener{core.ListenerFunc(func(ev *core.Event) { events++ })},
	}, p.BodyWith(Params{"depositors": 1, "deposits": 1}))
	if res.Verdict != core.VerdictPass {
		t.Fatalf("tiny account: %v", res)
	}
	if res.Threads != 2 {
		t.Fatalf("threads = %d, want 2 (1 depositor + main)", res.Threads)
	}
}

// TestExplorableKeysAreDefaults: BodyWith silently ignores unknown
// keys, so a typo in an Explorable size would leave the program at
// full size. Every Explorable key must be a Defaults key.
func TestExplorableKeysAreDefaults(t *testing.T) {
	declared := 0
	for _, p := range All() {
		for k := range p.Explorable {
			if _, ok := p.Defaults[k]; !ok {
				t.Errorf("%s: Explorable key %q is not a Defaults key (have %v)", p.Name, k, p.Defaults)
			}
		}
		if p.Explorable != nil {
			declared++
		}
	}
	if declared == 0 {
		t.Fatal("no program declares an explorable size")
	}
}

// TestDocsMentionMechanism spot-checks that program docs explain the
// interleaving, not just name the bug.
func TestDocsMentionMechanism(t *testing.T) {
	for _, p := range Buggy() {
		if len(strings.Fields(p.Doc)) < 25 {
			t.Errorf("%s: bug documentation too thin (%d words)", p.Name, len(strings.Fields(p.Doc)))
		}
	}
}

// TestRegisterHook: the external registration hook accepts a new
// program, rejects duplicates with an error (not a panic), and rejects
// anonymous or bodyless entries.
func TestRegisterHook(t *testing.T) {
	p := &Program{
		Name:     "register-hook-probe",
		Synopsis: "test-only entry",
		Kind:     KindNone,
		Body:     func(ct core.T, _ Params) {},
	}
	if err := Register(p); err != nil {
		t.Fatalf("Register: %v", err)
	}
	defer delete(registry, p.Name)

	got, err := Get(p.Name)
	if err != nil || got != p {
		t.Fatalf("Get after Register = %v, %v", got, err)
	}
	if err := Register(p); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate Register error = %v", err)
	}
	if err := Register(&Program{Name: "x"}); err == nil {
		t.Fatal("bodyless program registered")
	}
	if err := Register(&Program{Body: p.Body}); err == nil {
		t.Fatal("anonymous program registered")
	}
}
