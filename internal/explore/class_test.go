package explore

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/repository"
)

// classRecorder is a listener that sorts every run of a search into
// its trace class, through the same per-thread event chains the state
// cache hashes. A run that fails is classed by its verdict, the
// failing thread and that thread's chain, which folds in the failure's
// whole causal past and nothing else. Any other run is classed by its
// verdict and every chain. Two runs that are linearizations of one
// partial order land in one class, so a sound reduced search reaches
// every class the full search reaches.
type classRecorder struct {
	sh      *stateHasher
	classes map[string]int // class -> schedules that reached it
}

func newClassRecorder() *classRecorder {
	return &classRecorder{sh: newStateHasher(), classes: map[string]int{}}
}

func (r *classRecorder) OnEvent(ev *core.Event) { r.sh.OnEvent(ev) }
func (r *classRecorder) NeedsLocations() bool   { return false }
func (r *classRecorder) RunStart(core.RunInfo)  { r.sh.reset() }

func (r *classRecorder) RunEnd(res *core.Result) {
	var b strings.Builder
	b.WriteString(res.Verdict.String())
	if f := res.Failure; f != nil {
		fmt.Fprintf(&b, " t%d:%x", f.Thread, r.sh.chain(f.Thread))
	} else {
		for t, ch := range r.sh.chains {
			fmt.Fprintf(&b, " t%d:%x", t, ch)
		}
	}
	r.classes[b.String()]++
}

// sortedKeys lists a class set in a stable order, for diffs.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// classModes are the reduced searches the class oracle checks.
var classModes = []struct {
	name string
	set  func(*Options)
}{
	{"sleep", func(o *Options) { o.SleepSets = true }},
	{"dpor", func(o *Options) { o.DPOR = true }},
	{"dpor+cache", func(o *Options) { o.DPOR = true; o.StateCache = true }},
}

// TestReducedReachesEveryClass is the class oracle of the reduction
// layer, a finer contract than TestReducedEquivalence's bug sets: on
// every repository program whose full tree exhausts at its explorable
// size, the serial sleep-set, DPOR and DPOR+cache searches must reach
// exactly the trace classes (see classRecorder) the full DFS reaches.
// A reduction that skips a class has pruned a schedule no other
// explored schedule covers, whether or not that class holds a bug. The
// log line per search reads schedules per class: 1.0 is the ideal.
func TestReducedReachesEveryClass(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repository exploration sweep in -short mode")
	}
	// The step bound only has to be the same on both sides; a low one
	// keeps the spin-loop programs, whose trees never exhaust, cheap to
	// rule out.
	budget, maxSteps := 30000, int64(500)
	if raceEnabled {
		budget = 500
	}
	for _, prog := range repository.All() {
		t.Run(prog.Name, func(t *testing.T) {
			t.Parallel()
			classesReached(t, prog, budget, maxSteps)
		})
	}
}

// classesReached is TestReducedReachesEveryClass for one program.
func classesReached(t *testing.T, prog *repository.Program, budget int, maxSteps int64) {
	body := prog.BodyWith(prog.Explorable)
	fullRec := newClassRecorder()
	full := Explore(Options{MaxSchedules: budget, MaxSteps: maxSteps, Workers: 1,
		Listeners: []core.Listener{fullRec}}, body)
	if full.Err != nil {
		t.Fatalf("%s: %v", prog.Name, full.Err)
	}
	if !full.Exhausted {
		return
	}
	want := sortedKeys(fullRec.classes)
	line := []string{prog.Name, "full " + perClass(full.Schedules, len(want))}
	for _, mode := range classModes {
		rec := newClassRecorder()
		opts := Options{MaxSchedules: budget, MaxSteps: maxSteps, Workers: 1, Listeners: []core.Listener{rec}}
		mode.set(&opts)
		res := Explore(opts, body)
		label := prog.Name + "/" + mode.name
		if res.Err != nil || !res.Exhausted {
			t.Fatalf("%s: err=%v exhausted=%v", label, res.Err, res.Exhausted)
		}
		got := sortedKeys(rec.classes)
		if !slices.Equal(got, want) {
			var missing, extra []string
			for _, k := range want {
				if _, ok := rec.classes[k]; !ok {
					missing = append(missing, k)
				}
			}
			for _, k := range got {
				if _, ok := fullRec.classes[k]; !ok {
					extra = append(extra, k)
				}
			}
			t.Errorf("%s: reaches %d of the full search's %d classes; missing %d %v, extra %d %v",
				label, len(got)-len(extra), len(want), len(missing), first(missing, 3), len(extra), first(extra, 3))
		}
		line = append(line, mode.name+" "+perClass(res.Schedules, len(want)))
	}
	t.Log(strings.Join(line, "  "))
}

// perClass formats "schedules/classes = ratio".
func perClass(schedules, classes int) string {
	return strconv.Itoa(schedules) + "/" + strconv.Itoa(classes) + "=" +
		strconv.FormatFloat(float64(schedules)/float64(classes), 'f', 1, 64)
}

func first(s []string, n int) []string { return s[:min(n, len(s))] }
