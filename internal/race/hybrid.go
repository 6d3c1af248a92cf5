package race

import (
	"sort"

	"mtbench/internal/core"
)

// Hybrid combines the two detectors in the O'Callahan/Choi spirit: a
// warning is reported only when the happens-before detector finds the
// access unordered and the Eraser candidate lockset is empty. It
// trades a little recall for the lowest false-alarm rate of the three
// — the benchmark's E2 experiment quantifies exactly that trade.
type Hybrid struct {
	hb *HB
	ls *Lockset
}

// NewHybrid returns a hybrid detector. respectAtomics is passed to the
// happens-before half.
func NewHybrid(respectAtomics bool) *Hybrid {
	return &Hybrid{hb: NewHB(respectAtomics), ls: NewLockset()}
}

// Name implements Detector.
func (d *Hybrid) Name() string { return "hybrid" }

// Reset implements Detector.
func (d *Hybrid) Reset() {
	d.hb.Reset()
	d.ls.Reset()
}

// RunStart implements core.RunObserver.
func (d *Hybrid) RunStart(info core.RunInfo) {
	d.hb.RunStart(info)
	d.ls.RunStart(info)
}

// RunEnd implements core.RunObserver.
func (d *Hybrid) RunEnd(*core.Result) {}

// OnEvent implements core.Listener by feeding both halves.
func (d *Hybrid) OnEvent(ev *core.Event) {
	d.hb.OnEvent(ev)
	d.ls.OnEvent(ev)
}

// Warnings implements Detector: the HB warnings on variables whose
// lockset also ran empty.
func (d *Hybrid) Warnings() []Warning {
	if len(d.hb.warns.warnings) == 0 {
		return nil // the common case while a campaign polls for a first warning
	}
	lsVars := map[string]bool{}
	for _, v := range d.ls.WarnedVars() {
		lsVars[v] = true
	}
	var out []Warning
	for _, w := range d.hb.Warnings() {
		if lsVars[w.Var] {
			w.Detector = d.Name()
			out = append(out, w)
		}
	}
	return out
}

// WarnedVars implements Detector.
func (d *Hybrid) WarnedVars() []string {
	set := map[string]bool{}
	for _, w := range d.Warnings() {
		set[w.Var] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Events returns the number of events processed (each event is
// processed by both halves; the count reports one pass).
func (d *Hybrid) Events() int64 { return d.hb.Events() }
