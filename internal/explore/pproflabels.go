// Driver-phase pprof labels.
//
// The scheduler labels every virtual-thread goroutine "mtbench=vthread"
// (program execution: replayed, novel and coasted operations all run
// there). Each exploration worker goroutine labels its own phases so a
// CPU profile splits driver overhead by activity:
//
//	phase=position   choosing the branch to fast-forward to and the
//	                 hasher restore before a run starts
//	phase=drive      blocked in Start while the program runs (the
//	                 scheduler-side fast-forward happens here)
//	phase=record     outcome/bug bookkeeping after a run
//
// The labels are always on: the four SetGoroutineLabels calls per
// schedule cost a few tens of nanoseconds, well under 1% of the
// cheapest schedule, and a profile taken by any caller (cmd/explore,
// campaign, stackbench) carries the phases without asking for them.
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

// phaseLabels holds one labelled context per phase, built once per
// search and shared read-only by its workers.
type phaseLabels struct {
	base context.Context
	ctxs [numPhases]context.Context
}

// newPhaseLabels derives the phase contexts from base (the search's
// Options.Context, or Background), so labels a caller attached with
// pprof.Do stay on the worker goroutines through every phase and after
// exit.
func newPhaseLabels(base context.Context) *phaseLabels {
	if base == nil {
		base = context.Background()
	}
	l := &phaseLabels{base: base}
	for i, name := range phaseNames {
		l.ctxs[i] = pprof.WithLabels(base, pprof.Labels("mtbench", "driver", "phase", name))
	}
	return l
}

// enter labels the calling goroutine with the given phase.
func (l *phaseLabels) enter(phase int) {
	pprof.SetGoroutineLabels(l.ctxs[phase])
}

// exit drops the phase label, restoring the base labels.
func (l *phaseLabels) exit() {
	pprof.SetGoroutineLabels(l.base)
}
