// Driver-phase pprof labels (Options.ProfileLabels).
//
// The scheduler labels every virtual-thread goroutine "mtbench=vthread"
// (program execution: replayed, novel and coasted operations all run
// there). The exploration worker goroutine, when ProfileLabels is on,
// labels its own phases so a CPU profile splits driver overhead by
// activity:
//
//	phase=position   branch-snapshot lookup and the hasher restore
//	                 before a run starts
//	phase=drive      blocked in Start while the program runs (the
//	                 scheduler-side fast-forward happens here)
//	phase=record     outcome/bug bookkeeping after a run
//
// A nil *phaseLabels (ProfileLabels off) makes every method a no-op,
// so the hot path pays one nil check per phase transition and no
// SetGoroutineLabels syscall-ish work.
package explore

import (
	"context"
	"runtime/pprof"
)

const (
	phasePosition = iota
	phaseDrive
	phaseRecord
	numPhases
)

var phaseNames = [numPhases]string{"position", "drive", "record"}

type phaseLabels struct {
	base context.Context
	ctxs [numPhases]context.Context
}

func newPhaseLabels(on bool) *phaseLabels {
	if !on {
		return nil
	}
	l := &phaseLabels{base: context.Background()}
	for i, name := range phaseNames {
		l.ctxs[i] = pprof.WithLabels(l.base, pprof.Labels("mtbench", "driver", "phase", name))
	}
	return l
}

// enter labels the calling goroutine with the given phase.
func (l *phaseLabels) enter(phase int) {
	if l == nil {
		return
	}
	pprof.SetGoroutineLabels(l.ctxs[phase])
}

// exit drops the phase label.
func (l *phaseLabels) exit() {
	if l == nil {
		return
	}
	pprof.SetGoroutineLabels(l.base)
}
