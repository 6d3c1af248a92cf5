package explore

import (
	"context"
	"runtime/pprof"
	"testing"
)

// TestPhaseLabelsKeepCallerLabels: the phase contexts derive from the
// search's Options.Context, so labels a caller attached with pprof.Do
// stay on the driver through every phase and after exit.
func TestPhaseLabelsKeepCallerLabels(t *testing.T) {
	pprof.Do(context.Background(), pprof.Labels("cell", "c1"), func(ctx context.Context) {
		l := newPhaseLabels(ctx)
		for i, name := range phaseNames {
			if v, _ := pprof.Label(l.ctxs[i], "cell"); v != "c1" {
				t.Errorf("phase %s: cell label = %q, want c1", name, v)
			}
			if v, _ := pprof.Label(l.ctxs[i], "phase"); v != name {
				t.Errorf("phase %s: phase label = %q", name, v)
			}
		}
		if v, _ := pprof.Label(l.base, "cell"); v != "c1" {
			t.Errorf("exit base: cell label = %q, want c1", v)
		}
	})
	if v, ok := pprof.Label(newPhaseLabels(nil).ctxs[phaseDrive], "phase"); !ok || v != "drive" {
		t.Errorf("no Options.Context: drive phase label = %q, %v", v, ok)
	}
}
