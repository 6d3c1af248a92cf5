package sched

import (
	"runtime"
	"testing"

	"mtbench/internal/core"
)

func goroutineCount() int { return runtime.NumGoroutine() }

// allocBody is a small but representative program: an object of each
// hot kind, a fork/join pair, lock traffic and an oracle. Its own
// per-run allocations (the two object constructors and the spawned
// closure) are part of the measured budget, so the engine's share of
// the bound below is only what is left after them.
func allocBody(ct core.T) {
	x := ct.NewInt("x", 0)
	mu := ct.NewMutex("mu")
	h := ct.Go("w", func(wt core.T) {
		mu.Lock(wt)
		x.Add(wt, 1)
		mu.Unlock(wt)
	})
	mu.Lock(ct)
	x.Add(ct, 1)
	mu.Unlock(ct)
	h.Join(ct)
	ct.Assert(x.Load(ct) == 2, "sum")
}

// maxPooledAllocs pins the steady-state allocation count of a pooled
// run of allocBody. Measured at 3: Run's caller-owned copies of the
// Result and of its FinishOrder, and the program's own closure for the
// spawned thread (its captures ride along); the scheduler, threads,
// coroutines, objects, runnable sets, schedule buffer and events
// contribute nothing. The bound leaves headroom of 2 for toolchain
// drift; a jump past it means someone put an allocation back on the
// per-run path — the regression this test exists to catch.
const maxPooledAllocs = 5

// TestPooledRunAllocs is the allocation regression gate on the run
// hot path (CI runs it with every push): steady-state pooled runs must
// stay allocation-free in the engine, with and without schedule
// recording.
func TestPooledRunAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"recording", Config{RecordSchedule: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner()
			defer r.Close()
			r.Run(tc.cfg, allocBody) // warm the pools and buffers
			n := testing.AllocsPerRun(200, func() {
				r.Run(tc.cfg, allocBody)
			})
			if n > maxPooledAllocs {
				t.Fatalf("pooled run allocates %.1f objects/run, budget %d", n, maxPooledAllocs)
			}
		})
	}
}

// spawnWorker is a thread body that captures nothing, so spawning it
// allocates no closure.
func spawnWorker(wt core.T) {
	mu := wt.NewMutex("mu")
	mu.Lock(wt)
	wt.Yield()
	mu.Unlock(wt)
}

// closureFreeBody exercises objects, a fork/join pair, lock traffic and
// an oracle without allocating anything of its own.
func closureFreeBody(ct core.T) {
	x := ct.NewInt("x", 0)
	h := ct.Go("w", spawnWorker)
	x.Add(ct, 1)
	h.Join(ct)
	ct.Assert(x.Load(ct) == 1, "sum")
}

// TestPooledStartAllocs pins the engine's own share of a pooled run at
// zero: Start hands out the pooled Result instead of copying it, so a
// run allocates only what the program itself does — nothing for
// closureFreeBody, the spawned closure for allocBody.
func TestPooledStartAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(core.T)
		own  float64
	}{
		{"closure-free", closureFreeBody, 0},
		{"allocBody", allocBody, 1},
	} {
		for _, cfg := range []Config{{}, {RecordSchedule: true}} {
			r := NewRunner()
			r.Start(cfg, tc.body)
			n := testing.AllocsPerRun(200, func() { r.Start(cfg, tc.body) })
			r.Close()
			if n > tc.own {
				t.Errorf("%s (record %v): pooled Start allocates %.1f objects/run, the program's own %.0f",
					tc.name, cfg.RecordSchedule, n, tc.own)
			}
		}
	}
}

// locReader is the cheapest listener that makes the runtime capture
// locations: it reads every event's Loc and LocID and allocates
// nothing itself.
type locReader struct {
	located int
	ids     uint32
}

func (l *locReader) OnEvent(ev *core.Event) {
	if ev.Loc.File != "" {
		l.located++
	}
	l.ids ^= ev.LocID
}

// TestPooledRunAllocsWithLocations extends the gate to runs that
// capture a location per probe (coverage, race detection): once each
// call site has been resolved, a location lookup allocates nothing, so
// such a run allocates no more than the listener-free run
// TestPooledRunAllocs pins.
func TestPooledRunAllocsWithLocations(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	lr := &locReader{}
	located := Config{Listeners: []core.Listener{lr}}
	r.Run(Config{}, allocBody)
	r.Run(located, allocBody)
	if lr.located == 0 {
		t.Fatal("listener saw no located events: locations were not captured")
	}
	plain := testing.AllocsPerRun(200, func() { r.Run(Config{}, allocBody) })
	withLocs := testing.AllocsPerRun(200, func() { r.Run(located, allocBody) })
	if withLocs > plain {
		t.Fatalf("location-capturing run allocates %.1f objects/run, listener-free %.1f", withLocs, plain)
	}
}

// TestPooledRunReusesThreads pins the goroutine side of pooling: a
// reused Runner must not grow the process's goroutine population run
// over run (each virtual thread's goroutine parks in the pool between
// runs instead of dying and respawning).
func TestPooledRunReusesThreads(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	r.Run(Config{}, allocBody)
	before := goroutineCount()
	for i := 0; i < 50; i++ {
		r.Run(Config{}, allocBody)
	}
	after := goroutineCount()
	if after > before+2 {
		t.Fatalf("goroutines grew from %d to %d over 50 pooled runs", before, after)
	}
}
