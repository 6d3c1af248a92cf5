package explore

import (
	"mtbench/internal/core"
	"mtbench/internal/sched"
)

// depIndex is the last-dependent index over the DFS path: it answers
// "which is the deepest path node, chosen by a thread other than p,
// whose operation does not commute with footprint fp?" in O(threads),
// the question DPOR's backtrack-set construction asks for every
// pending operation of every fresh node.
//
// It rests on core.DepClass: Commutes is a function of the two
// footprints' classes and whether their objects match. So the index
// keeps, for the indexed prefix of the path, per thread the depth of
// the deepest node of any class, of the deepest ClassUniversal node and
// of the deepest fork, and per (object, thread) the depth of the
// deepest read and the deepest write. A query is then a maximum over
// threads:
//
//	universal fp → deepest node of any class
//	local fp     → deepest universal node
//	fork         → deepest universal node or fork
//	read of o    → deepest universal node or write of o
//	write of o   → deepest universal node, write of o or read of o
//
// Nodes whose chosen thread is sched.IdleID are not indexed (the walk-
// back skipped them too). Depths are stored plus one, so the zero value
// means "none" and freshly grown tables need no initialisation.
//
// The DFS path is a stack and only its top node ever changes its
// choice, so the index extends lazily (extend, at query time) and is
// cut back with one undo record per path node (truncate, called by
// backtrack before the top node re-chooses or pops). split and state-cache
// cuts never change an indexed node's chosen()/chosenFP(): split only
// marks options other than the chosen one done, and a cut rewrites its
// node's options before the node joins the path.
//
// The index is owned by the worker kit and reused across shards and
// Explore calls; once its tables have grown to the program's thread,
// object and depth counts it allocates nothing.
type depIndex struct {
	any  []int32 // per thread: deepest node of any class
	uni  []int32 // per thread: deepest universal node
	fork []int32 // per thread: deepest fork
	objs []objDeps
	// undo holds one record per indexed path node, in path order; its
	// length is the indexed depth.
	undo []depUndo
}

// objDeps holds one object's per-thread deepest read and write.
type objDeps struct{ r, w []int32 }

// depUndo restores what indexing one path node overwrote. t is -1 for
// an unindexed (idle) node.
type depUndo struct {
	t       int32
	cls     core.DepClass
	obj     uint32
	oldAny  int32
	oldSlot int32
}

// reset empties the index. Undoing every record restores the tables to
// all-zero, so the grown backing arrays are kept.
func (x *depIndex) reset() { x.truncate(0) }

// truncate drops path nodes k and deeper from the index.
func (x *depIndex) truncate(k int) {
	for i := len(x.undo) - 1; i >= k; i-- {
		u := x.undo[i]
		if u.t < 0 {
			continue
		}
		x.any[u.t] = u.oldAny
		if s := x.slot(u.cls, u.obj, u.t); s != nil {
			*s = u.oldSlot
		}
	}
	x.undo = x.undo[:min(k, len(x.undo))]
}

// extend indexes path nodes up to (not including) pd.
func (x *depIndex) extend(path []*node, pd int) {
	for len(x.undo) < pd {
		x.push(path[len(x.undo)])
	}
}

func (x *depIndex) push(n *node) {
	u := depUndo{t: -1}
	if t := n.chosen(); t != sched.IdleID {
		fp := n.chosenFP()
		u = depUndo{t: int32(t), cls: fp.Class(), obj: fp.Obj}
		if int(t) >= len(x.any) {
			x.any = grow(x.any, int(t))
			x.uni = grow(x.uni, int(t))
			x.fork = grow(x.fork, int(t))
		}
		d := int32(len(x.undo) + 1)
		u.oldAny, x.any[t] = x.any[t], d
		if s := x.slot(u.cls, u.obj, u.t); s != nil {
			u.oldSlot, *s = *s, d
		}
	}
	x.undo = append(x.undo, u)
}

// slot returns the class-specific cell a node of class cls on obj by
// thread t updates, growing the tables as needed; nil for local nodes,
// which only update the any-class cell.
func (x *depIndex) slot(cls core.DepClass, obj uint32, t int32) *int32 {
	switch cls {
	case core.ClassUniversal:
		return &x.uni[t]
	case core.ClassLocal:
		return nil
	case core.ClassFork:
		return &x.fork[t]
	}
	if int(obj) >= len(x.objs) {
		x.objs = append(x.objs, make([]objDeps, int(obj)+16-len(x.objs))...)
	}
	o := &x.objs[obj]
	if cls == core.ClassRead {
		if int(t) >= len(o.r) {
			o.r = grow(o.r, int(t))
		}
		return &o.r[t]
	}
	if int(t) >= len(o.w) {
		o.w = grow(o.w, int(t))
	}
	return &o.w[t]
}

// grow extends s with zeros so that index i is valid.
func grow(s []int32, i int) []int32 {
	return append(s, make([]int32, i+1-len(s))...)
}

// deepest returns the path index of the deepest indexed node, chosen by
// a thread other than skip, whose operation does not commute with fp;
// -1 when there is none. Pass core.NoThread to exclude no thread.
func (x *depIndex) deepest(fp core.Footprint, skip core.ThreadID) int {
	var best int32
	switch cls := fp.Class(); cls {
	case core.ClassUniversal:
		best = maxExcept(x.any, nil, nil, skip)
	case core.ClassLocal:
		best = maxExcept(x.uni, nil, nil, skip)
	case core.ClassFork:
		best = maxExcept(x.uni, x.fork, nil, skip)
	default:
		var r, w []int32
		if int(fp.Obj) < len(x.objs) {
			o := &x.objs[fp.Obj]
			w = o.w
			if cls == core.ClassWrite {
				r = o.r
			}
		}
		best = maxExcept(x.uni, w, r, skip)
	}
	return int(best) - 1
}

// maxExcept is the maximum of a[t], b[t] and c[t] over every thread
// t ≠ skip. b and c may be shorter than a (never longer: a thread's
// per-object cells only exist once its per-thread cells do).
func maxExcept(a, b, c []int32, skip core.ThreadID) int32 {
	var best int32
	for t, d := range a {
		if t < len(b) && b[t] > d {
			d = b[t]
		}
		if t < len(c) && c[t] > d {
			d = c[t]
		}
		if d > best && core.ThreadID(t) != skip {
			best = d
		}
	}
	return best
}
