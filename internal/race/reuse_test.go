package race

import (
	"reflect"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// eventLog records a run's events by value, so they can be fed to
// detectors again.
type eventLog []core.Event

func (l *eventLog) OnEvent(ev *core.Event) { *l = append(*l, *ev) }

// recordRuns records seeds runs of prog, the first round-robin and the
// rest seeded-random, as the campaign's race finder schedules them.
func recordRuns(prog *repository.Program, seeds int) []eventLog {
	r := sched.NewRunner()
	defer r.Close()
	random := sched.RandomFactory()
	runs := make([]eventLog, seeds)
	for i := range runs {
		st := sched.RoundRobin()
		if i > 0 {
			st = random(int64(i))
		}
		r.Start(sched.Config{Strategy: st, Name: prog.Name, MaxSteps: 100_000, Plan: prog.Plan,
			Listeners: []core.Listener{&runs[i]}}, prog.BodyWith(nil))
	}
	return runs
}

// feed replays one recorded run into d as a run of its own.
func feed(d Detector, run eventLog) {
	d.(core.RunObserver).RunStart(core.RunInfo{})
	for i := range run {
		d.OnEvent(&run[i])
	}
}

// forget drops the warnings d has gathered and keeps its per-run
// state, so its next run's warnings can be compared one for one.
func forget(d Detector) {
	switch d := d.(type) {
	case *HB:
		d.warns.reset()
	case *Lockset:
		d.warns.reset()
	case *Hybrid:
		d.hb.warns.reset()
		d.ls.warns.reset()
	}
}

// TestReusedDetectorMatchesFresh pins the in-place run reset: over
// every repository program and 20 runs, a detector reused across the
// runs reports in run i exactly what a fresh detector fed only run i
// does. The reused detector forgets its warnings before each run, so
// deduplication against earlier runs cannot hide a difference. One
// more sequence starts with a run that ends holding a lock, as a
// failed or deadlocked run can: the next run's threads hold nothing.
func TestReusedDetectorMatchesFresh(t *testing.T) {
	detectors := []func() Detector{
		func() Detector { return NewHB(true) },
		func() Detector { return NewLockset() },
		func() Detector { return NewHybrid(true) },
	}
	sequences := map[string][]eventLog{"held-lock": {
		{{Thread: 0, Op: core.OpLock, Obj: 7, Value: 1}},
		{{Thread: 1, Op: core.OpWrite, Obj: 1, Name: "x"}, {Thread: 0, Op: core.OpWrite, Obj: 1, Name: "x"}},
	}}
	for _, prog := range repository.All() {
		sequences[prog.Name] = recordRuns(prog, 20)
	}
	for name, runs := range sequences {
		for _, mk := range detectors {
			reused := mk()
			for i, run := range runs {
				fresh := mk()
				feed(fresh, run)
				forget(reused)
				feed(reused, run)
				if got, want := reused.Warnings(), fresh.Warnings(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s on %s, run %d: reused detector warned %v, fresh %v", reused.Name(), name, i, got, want)
				}
			}
		}
	}
}

// TestHybridSteadyStateAllocs is the allocation gate on the detector's
// per-run path: once a Hybrid has seen a run (its tables sized, its
// warnings recorded), feeding it that run again allocates nothing.
func TestHybridSteadyStateAllocs(t *testing.T) {
	for _, name := range []string{"account", "philosophers", "boundedbuffer"} {
		prog, err := repository.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		run := recordRuns(prog, 2)[1]
		d := NewHybrid(true)
		feed(d, run)
		warned := len(d.hb.Warnings()) + len(d.ls.Warnings())
		if n := testing.AllocsPerRun(50, func() { feed(d, run) }); n != 0 {
			t.Errorf("%s: a steady-state Hybrid run allocates %.1f objects", name, n)
		}
		if again := len(d.hb.Warnings()) + len(d.ls.Warnings()); again != warned {
			t.Errorf("%s: replaying the same run added %d warnings", name, again-warned)
		}
	}
}

// TestTraceIDsOutsideDenseRange: a trace may carry any thread or object
// id. Ids past the dense tables, and a negative thread id, take map
// slots: the detectors report the same races as on the run's own ids,
// and no clock grows with the id's value.
func TestTraceIDsOutsideDenseRange(t *testing.T) {
	var run eventLog
	sched.Run(sched.Config{Strategy: sched.RoundRobin(), Listeners: []core.Listener{&run}}, racyBody)
	for _, far := range []core.ThreadID{denseThreads, -1} {
		const farObj = core.ObjectID(denseObjects)
		var worker core.ThreadID = 1
		renamed := make(eventLog, len(run))
		copy(renamed, run)
		var dataObj core.ObjectID
		for i := range renamed {
			ev := &renamed[i]
			if ev.Thread == worker {
				ev.Thread = far
			}
			if (ev.Op == core.OpFork || ev.Op == core.OpJoin) && core.ThreadID(ev.Value) == worker {
				ev.Value = int64(far)
			}
			if ev.Op.IsAccess() {
				dataObj, ev.Obj = ev.Obj, farObj
			}
		}
		for _, mk := range []func() Detector{
			func() Detector { return NewHB(true) },
			func() Detector { return NewLockset() },
		} {
			want, got := mk(), mk()
			feed(want, run)
			feed(got, renamed)
			ws := want.Warnings()
			if len(ws) == 0 {
				t.Fatalf("%s: no warning on the racy run", want.Name())
			}
			var expect []Warning
			for _, w := range ws {
				for j, th := range w.Threads {
					if th == worker {
						w.Threads[j] = far
					}
				}
				if w.Obj == dataObj {
					w.Obj = farObj
				}
				expect = append(expect, w)
			}
			if gw := got.Warnings(); !reflect.DeepEqual(gw, expect) {
				t.Errorf("%s with thread %d, object %d: warned %v, want %v", got.Name(), far, farObj, gw, expect)
			}
			if hb, ok := got.(*HB); ok {
				for _, c := range hb.threads.dense[:hb.threads.hwm] {
					if c != nil && c.Len() > denseThreads+1 {
						t.Errorf("thread %d sized a clock to %d components", far, c.Len())
					}
				}
			}
		}
	}
}
