package core

import (
	"sync"
	"testing"
)

// callsite is one resolution: what CallerLocationID returned with the
// frame-pointer key (fast) and with the logical key alone (logical).
type callsite struct {
	fast, logical Location
	fastID, logID uint32
}

// probe resolves the same call instruction once per key kind, so the
// two results must name the same location for every skip.
//
//go:noinline
func probe(skip int) callsite {
	var r [2]Location
	var ids [2]uint32
	for i, only := range []bool{false, true} {
		logicalOnly.Store(only)
		r[i], ids[i] = CallerLocationID(skip)
	}
	logicalOnly.Store(false)
	return callsite{fast: r[0], logical: r[1], fastID: ids[0], logID: ids[1]}
}

//go:noinline
func viaDirect(skip int) callsite { return probe(skip) }

// viaInlined is small enough to be inlined into its caller, which
// merges its frame into the caller's physical frame.
func viaInlined(skip int) callsite { return probe(skip) }

//go:noinline
func viaRecursion(n, skip int) callsite {
	if n == 0 {
		return probe(skip)
	}
	return viaRecursion(n-1, skip)
}

type prober interface {
	probeAt(skip int) callsite
	recurse(n, skip int) callsite
}

// valueProber's methods have value receivers, so calls through a
// prober go through compiler-generated (*valueProber) wrappers that
// runtime.Callers elides.
type valueProber struct{ self prober }

//go:noinline
func (valueProber) probeAt(skip int) callsite { return probe(skip) }

// recurse calls itself through the interface, so each level repeats
// the same call site with a wrapper frame between: a key that holds
// the repeated frame can still not decide the logical frame past it.
//
//go:noinline
func (v valueProber) recurse(n, skip int) callsite {
	if n == 0 {
		return probe(skip)
	}
	return v.self.recurse(n-1, skip)
}

type ptrProber struct{}

//go:noinline
func (*ptrProber) probeAt(skip int) callsite { return probe(skip) }

func TestCallerLocationIDMatchesCallers(t *testing.T) {
	vp := &valueProber{}
	vp.self = vp
	var iface prober = vp
	closure := func(skip int) callsite { return probe(skip) }
	methodValue := (&ptrProber{}).probeAt
	deferred := func(skip int) (r callsite) {
		defer func() { r = probe(skip) }()
		return
	}
	goroutine := func(skip int) callsite {
		ch := make(chan callsite)
		go func() { ch <- probe(skip) }()
		return <-ch
	}
	shapes := []struct {
		name string
		call func(skip int) callsite
	}{
		{"direct", func(skip int) callsite { return viaDirect(skip) }},
		{"inlined", func(skip int) callsite { return viaInlined(skip) }},
		{"closure", closure},
		{"method-value", methodValue},
		{"deferred", deferred},
		{"recursive", func(skip int) callsite { return viaRecursion(3, skip) }},
		{"wrapper", func(skip int) callsite { return iface.probeAt(skip) }},
		{"wrapper-recursive-2", func(skip int) callsite { return iface.recurse(2, skip) }},
		{"wrapper-recursive-1", func(skip int) callsite { return iface.recurse(1, skip) }},
		{"goroutine", goroutine},
	}
	check := func(t *testing.T, call func(skip int) callsite) {
		for skip := 0; skip <= keyFrames; skip++ {
			for n := 0; n < 3; n++ {
				c := call(skip)
				if c.fast != c.logical || c.fastID != c.logID {
					t.Errorf("skip %d call %d: frame-pointer key gave %v (%d), runtime.Callers %v (%d)",
						skip, n, c.fast, c.fastID, c.logical, c.logID)
					return
				}
				if skip == 0 && c.fast.Fn != "core.probe" {
					t.Errorf("skip 0 resolved %v, want core.probe", c.fast)
					return
				}
			}
		}
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) { check(t, sh.call) })
	}
	// Goroutines resolving and publishing new call paths at once. Each
	// one's probes toggle the logical-key seam under the others, which
	// is harmless: both keys resolve exactly.
	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, sh := range shapes {
					check(t, func(skip int) callsite { return sh.call(skip) })
				}
			}()
		}
		wg.Wait()
	})
}

// TestCallerLocationIDWrapperFallsBack pins the guard on the shape
// where a frame-pointer key repeats the frame runtime.Callers picks: at
// skip 3, recursion depths 2 and 1 through a wrapper share the key
// (probe, recurse, wrapper, recurse) but not the location, so the key
// must be published as a logical one.
func TestCallerLocationIDWrapperFallsBack(t *testing.T) {
	vp := &valueProber{}
	vp.self = vp
	var iface prober = vp
	deep := iface.recurse(2, 3)
	shallow := iface.recurse(1, 3)
	if deep.fast != deep.logical || shallow.fast != shallow.logical {
		t.Fatalf("recursion through a wrapper: %+v / %+v", deep, shallow)
	}
	if deep.fast == shallow.fast {
		t.Fatalf("depths 2 and 1 resolved the same frame %v; the shape no longer tests the guard", deep.fast)
	}
}

// BenchmarkCallerLocationID measures one probe-depth lookup (skip 1,
// as Assert passes) on the hit path and with the logical key forced,
// which costs a runtime.Callers walk per lookup.
func BenchmarkCallerLocationID(b *testing.B) {
	for _, bc := range []struct {
		name    string
		logical bool
	}{{"hit", false}, {"logical", true}} {
		b.Run(bc.name, func(b *testing.B) {
			logicalOnly.Store(bc.logical)
			defer logicalOnly.Store(false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchLoc, _ = benchProbe()
			}
		})
	}
}

var benchLoc Location

//go:noinline
func benchProbe() (Location, uint32) { return CallerLocationID(1) }
