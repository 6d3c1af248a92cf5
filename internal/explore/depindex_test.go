package explore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

// walkBack is the reference the last-dependent index must agree with:
// Flanagan & Godefroid's lazy walk-back, scanning path[:pd] from the
// frontier towards the root for the deepest node, chosen by a thread
// other than skip (and not an idle decision), whose operation does not
// commute with fp. It returns -1 when there is none.
func walkBack(path []*node, pd int, fp core.Footprint, skip core.ThreadID) int {
	for i := pd - 1; i >= 0; i-- {
		ni := path[i]
		ch := ni.chosen()
		if ch == skip || ch == sched.IdleID {
			continue
		}
		if !ni.chosenFP().Commutes(fp) {
			return i
		}
	}
	return -1
}

// refDporAnalyze and refApplySummary are dporAnalyze and applySummary
// as they were written over the walk-back.
func refDporAnalyze(e *explorer, n *node, pd int) {
	for oi, p := range n.options {
		if p == sched.IdleID {
			continue
		}
		if i := walkBack(e.path, pd, n.fps[oi], p); i >= 0 {
			e.stats.Backtracks += e.path[i].addBacktrack(p)
		}
	}
}

func refApplySummary(e *explorer, ent *cacheEnt, pd int) {
	for _, packed := range ent.sum[:ent.nsum] {
		i := walkBack(e.path, pd, core.UnpackFootprint(packed), core.NoThread)
		if i < 0 {
			continue
		}
		ni := e.path[i]
		ch := ni.chosen()
		for k, o := range ni.options {
			if o != ch && !ni.todo[k] {
				ni.todo[k] = true
				e.stats.Backtracks++
			}
		}
	}
}

// modelOps and modelObjs span every dependence class (randFP marks half
// the invalid and join footprints Local, the lifecycle steps an
// unstarted thread and a join on a finished child take); object 7
// never appears on a generated path, so probes on it exercise the
// index's unseen-object case.
var (
	modelOps = []core.Op{
		core.OpInvalid, core.OpFork, core.OpJoin, core.OpSelect,
		core.OpYield, core.OpSleep,
		core.OpRead,
		core.OpWrite, core.OpLock, core.OpChanSend, core.OpWGWait,
	}
	modelObjs = []uint32{0, 1, 2, 3}
)

const modelThreads = 5

func randFP(rng *rand.Rand) core.Footprint {
	fp := core.Footprint{Op: modelOps[rng.Intn(len(modelOps))], Obj: modelObjs[rng.Intn(len(modelObjs))]}
	if fp.Op == core.OpInvalid || fp.Op == core.OpJoin {
		fp.Local = rng.Intn(2) == 0
	}
	return fp
}

// randNode builds a DFS node the way newNode can leave one: one to
// three runnable threads (sometimes plus the idle pseudo-thread), with
// footprints index-aligned, and sometimes — for a state-cache cut —
// both cut to the chosen option.
func randNode(rng *rand.Rand) *node {
	n := &node{}
	for _, t := range rng.Perm(modelThreads)[:1+rng.Intn(3)] {
		n.options = append(n.options, core.ThreadID(t))
	}
	if rng.Intn(5) == 0 {
		n.options = append(n.options, sched.IdleID)
	}
	for _, o := range n.options {
		fp := core.Footprint{}
		if o != sched.IdleID {
			fp = randFP(rng)
		}
		n.fps = append(n.fps, fp)
	}
	n.curIdx = rng.Intn(len(n.options))
	if rng.Intn(6) == 0 {
		n.options[0], n.fps[0] = n.chosen(), n.chosenFP()
		n.options, n.fps = n.options[:1], n.fps[:1]
		n.curIdx = 0
	}
	n.todo = make([]bool, len(n.options))
	n.done = make([]bool, len(n.options))
	n.todo[n.curIdx] = true
	return n
}

// TestDepIndexMatchesWalkBack drives the index and the walk-back
// through the same random path histories — pushes of every footprint
// class, idle choices and cut nodes; pops; the top node re-choosing,
// as backtrack does — and checks that both name the same node for every
// pending footprint and every excluded thread, including none.
func TestDepIndexMatchesWalkBack(t *testing.T) {
	var probes []core.Footprint
	for _, op := range modelOps {
		for _, obj := range []uint32{0, 1, 2, 3, 7} {
			probes = append(probes, core.Footprint{Op: op, Obj: obj})
		}
	}
	skips := []core.ThreadID{core.NoThread, sched.IdleID}
	for th := 0; th <= modelThreads; th++ {
		skips = append(skips, core.ThreadID(th))
	}

	var x depIndex // one index across seeds: reset must leave it clean
	checks := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x.reset()
		var path []*node
		for step := 0; step < 250; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				path = append(path, randNode(rng))
			case r < 7 && len(path) > 0:
				path = path[:len(path)-1]
				x.truncate(len(path))
			case r < 9 && len(path) > 0:
				top := path[len(path)-1]
				top.curIdx = rng.Intn(len(top.options))
				x.truncate(len(path) - 1)
			}
			// Query only now and then, so the index also catches up
			// over several pushes at once.
			if rng.Intn(3) != 0 {
				continue
			}
			x.extend(path, len(path))
			checks++
			for _, fp := range probes {
				for _, skip := range skips {
					want := walkBack(path, len(path), fp, skip)
					if got := x.deepest(fp, skip); got != want {
						t.Fatalf("seed %d step %d: deepest(%v, skip %d) = %d, walk-back %d (depth %d)",
							seed, step, fp, skip, got, want, len(path))
					}
				}
			}
		}
	}
	t.Logf("%d index states checked against the walk-back", checks)
}

// cloneNodes deep-copies a path's nodes (the maps DPOR writes to
// included), so the index and the reference can run on equal inputs.
func cloneNodes(path []*node) []*node {
	out := make([]*node, len(path))
	for i, n := range path {
		c := *n
		c.options = append([]core.ThreadID(nil), n.options...)
		c.fps = append([]core.Footprint(nil), n.fps...)
		c.todo = slices.Clone(n.todo)
		c.done = slices.Clone(n.done)
		out[i] = &c
	}
	return out
}

func nd(chosen int, opts []core.ThreadID, fps ...core.Footprint) *node {
	n := &node{options: opts, fps: fps, curIdx: chosen,
		todo: make([]bool, len(opts)), done: make([]bool, len(opts))}
	n.todo[chosen] = true
	return n
}

// TestDPORLookupsMatchWalkBack runs dporAnalyze and applySummary over
// hand-built and random paths and compares the resulting backtrack
// sets and Stats.Backtracks with the walk-back versions.
func TestDPORLookupsMatchWalkBack(t *testing.T) {
	th := func(ids ...core.ThreadID) []core.ThreadID { return ids }
	rd := func(o uint32) core.Footprint { return core.Footprint{Op: core.OpRead, Obj: o} }
	wr := func(o uint32) core.Footprint { return core.Footprint{Op: core.OpWrite, Obj: o} }
	lk := func(o uint32) core.Footprint { return core.Footprint{Op: core.OpLock, Obj: o} }
	yield := core.Footprint{Op: core.OpYield}
	fork := core.Footprint{Op: core.OpFork}
	idle := sched.IdleID

	type tc struct {
		name string
		path []*node
		n    *node    // the fresh node dporAnalyze runs for
		sum  []uint64 // the cached summary applySummary replays
	}
	cases := []tc{
		{
			name: "read/write races across threads",
			path: []*node{
				nd(0, th(0, 1), wr(1), rd(1)),
				nd(1, th(0, 1, 2), rd(1), rd(1), lk(2)),
				nd(0, th(2, 0), lk(2), yield),
				nd(0, th(0), yield),
			},
			n:   nd(0, th(0, 1, 2), wr(1), rd(1), lk(2)),
			sum: []uint64{rd(1).Packed(), lk(2).Packed(), yield.Packed()},
		},
		{
			name: "requester not enabled at the dependent node: all options",
			path: []*node{
				nd(0, th(0, 1), wr(3), wr(1)),
				nd(0, th(0, 1), rd(2), rd(1)),
			},
			n:   nd(0, th(2, 0), wr(3), rd(2)),
			sum: []uint64{wr(2).Packed()},
		},
		{
			name: "idle decisions and a cut node",
			path: []*node{
				nd(1, th(0, idle), wr(1), core.Footprint{}),
				nd(0, th(1, 2), rd(1), wr(2)),
				// A state-cache cut: options and fps trimmed to the
				// chosen one.
				{options: th(2), fps: []core.Footprint{wr(2)}, todo: []bool{true}, done: []bool{false}},
			},
			n:   nd(0, th(0, 1, idle), yield, wr(1), core.Footprint{}),
			sum: []uint64{yield.Packed(), fork.Packed()},
		},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		c := tc{name: fmt.Sprintf("random-%d", i), n: randNode(rng)}
		for d := rng.Intn(40); d > 0; d-- {
			c.path = append(c.path, randNode(rng))
		}
		for k := rng.Intn(5); k > 0; k-- {
			c.sum = append(c.sum, randFP(rng).Packed())
		}
		cases = append(cases, c)
	}

	var dep depIndex
	for _, c := range cases {
		got := &explorer{path: cloneNodes(c.path), dep: &dep}
		want := &explorer{path: cloneNodes(c.path)}
		dep.reset()
		pd := len(c.path)
		got.dporAnalyze(c.n, pd)
		refDporAnalyze(want, c.n, pd)
		ent := &cacheEnt{nsum: uint8(len(c.sum))}
		copy(ent.sum[:], c.sum)
		got.applySummary(ent, pd)
		refApplySummary(want, ent, pd)
		for i := range c.path {
			if !slices.Equal(got.path[i].todo, want.path[i].todo) {
				t.Errorf("%s: node %d todo %v, walk-back %v", c.name, i, got.path[i].todo, want.path[i].todo)
			}
		}
		if got.stats.Backtracks != want.stats.Backtracks {
			t.Errorf("%s: %d backtracks, walk-back %d", c.name, got.stats.Backtracks, want.stats.Backtracks)
		}
	}
}
