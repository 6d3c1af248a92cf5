package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Probes resolve their call site on every operation a location-reading
// listener observes (coverage, race detection), so CallerLocationID is
// on the hot path of those searches. It answers from one cache of call
// paths, keyed in one of two ways:
//
//   - Frame-pointer key (amd64, skip < keyFrames). CallerLocationID
//     reads its own frame pointer (getfp) and follows the saved-BP
//     chain skip+1 frames, taking each frame's return address. Those
//     addresses plus skip are the key, so a hit costs the walk and one
//     map lookup, and allocates nothing.
//   - Logical key (every other case). runtime.Callers reports the
//     logical PC of the frame at skip, which names the location by
//     itself.
//
// Why the frame-pointer key is exact. Each physical frame carries at
// least one logical frame (its function plus whatever was inlined into
// it), so the logical frame at skip lies among the frames the first
// skip+1 return addresses expand to, and that expansion depends on the
// addresses alone. The exception is a compiler-generated wrapper (a
// value method called through an interface): runtime.Callers elides
// it, every later logical frame moves up by one, and the frame it
// picks can lie past the key. So before a key is published, checkKey
// requires the key's own expansion to match runtime.Callers' first
// skip+1 logical frames one for one; if a wrapper sits in that window
// they differ, and the key is published as "use the logical key"
// instead. (Requiring only that the expansion contain the picked frame
// is not enough: a value method that recurses through an interface
// repeats the picked frame inside the key while the true pick lies past
// it.) The walk relies on every frame between the probe and the
// program saving its frame pointer, which the amd64 compiler does for
// every function that makes a call; a frame that did not would also
// break the one-for-one match and fall back the same way.
//
// Entries are never evicted: there is one per distinct static call path
// of at most keyFrames frames, a small set for any program.

// keyFrames bounds the frame-pointer walk; probes pass skip <= 2.
const keyFrames = 4

// locKey identifies a call path. skip >= 0 marks a frame-pointer key
// (pcs[:skip+1] are return addresses; a chain that ends early leaves
// zeros); skip == -1 marks a logical key (pcs[0] is runtime.Callers'
// PC).
type locKey struct {
	pcs  [keyFrames]uintptr
	skip int
}

type cachedLoc struct {
	loc     Location
	id      uint32
	logical bool // a frame-pointer key checkKey rejected: use the logical key
}

var (
	// locs is copy-on-write: readers load the map and index it, and
	// publish replaces it whole under locsMu.
	locs   atomic.Pointer[map[locKey]cachedLoc]
	locsMu sync.Mutex

	// logicalOnly makes every lookup use the logical key, as on
	// GOARCHes without getfp. Only tests set it.
	logicalOnly atomic.Bool
)

func init() {
	m := map[locKey]cachedLoc{}
	locs.Store(&m)
}

// CallerLocationID resolves the source location skip frames above its
// caller, plus the interned program-point handle (InternLocKey of the
// location). Runtimes call it at probe sites; skip hops over the
// runtime's own frames so the location is inside the benchmark program.
//
// It must not be inlined: the walk starts from its own frame.
//
//go:noinline
func CallerLocationID(skip int) (Location, uint32) {
	if fp := getfp(); fp != nil && skip < keyFrames && !logicalOnly.Load() {
		k := locKey{skip: skip}
		for i := 0; i <= skip && fp != nil; i++ {
			k.pcs[i] = *(*uintptr)(unsafe.Add(fp, unsafe.Sizeof(fp)))
			fp = *(*unsafe.Pointer)(fp)
		}
		c, ok := (*locs.Load())[k]
		if !ok {
			c = resolveKey(k)
		}
		if !c.logical {
			return c.loc, c.id
		}
	}
	return logicalLocation(skip)
}

// resolveKey resolves and publishes a frame-pointer key missing from
// the cache. It is called from CallerLocationID only, so the program's
// frames start three logical frames up.
func resolveKey(k locKey) cachedLoc {
	var logical [keyFrames]uintptr
	n := k.skip + 1
	c := cachedLoc{logical: true}
	if runtime.Callers(3, logical[:n]) == n {
		if fr, ok := checkKey(logical[:n], k.pcs[:n]); ok {
			c = resolved(fr)
		}
	}
	publish(k, c)
	return c
}

// checkKey expands runtime.Callers' logical PCs and a key's return
// addresses into frames and reports whether the two agree frame for
// frame over len(logical) frames; it returns the last logical frame,
// the one CallerLocationID resolves.
func checkKey(logical, key []uintptr) (runtime.Frame, bool) {
	lf, kf := runtime.CallersFrames(logical), runtime.CallersFrames(key)
	var l runtime.Frame
	for range logical {
		l, _ = lf.Next()
		k, _ := kf.Next()
		if l.PC != k.PC || l.Function != k.Function {
			return l, false
		}
	}
	return l, true
}

// logicalLocation resolves through the logical key. It is called from
// CallerLocationID only, so the program's frames start three logical
// frames up.
func logicalLocation(skip int) (Location, uint32) {
	var pc [1]uintptr
	if runtime.Callers(skip+3, pc[:]) == 0 {
		return Location{}, 0
	}
	k := locKey{pcs: [keyFrames]uintptr{pc[0]}, skip: -1}
	c, ok := (*locs.Load())[k]
	if !ok {
		// A fresh slice: handing pc[:] to CallersFrames would move pc
		// to the heap on every call, hit or miss.
		fr, _ := runtime.CallersFrames([]uintptr{pc[0]}).Next()
		c = resolved(fr)
		publish(k, c)
	}
	return c.loc, c.id
}

func resolved(fr runtime.Frame) cachedLoc {
	loc := Location{File: trimPath(fr.File), Line: fr.Line, Fn: trimFn(fr.Function)}
	return cachedLoc{loc: loc, id: InternLocKey(loc.File, loc.Line)}
}

// publish adds an entry by copying the map: misses happen once per
// call path, hits on every probe.
func publish(k locKey, c cachedLoc) {
	locsMu.Lock()
	defer locsMu.Unlock()
	old := *locs.Load()
	if _, ok := old[k]; ok {
		return
	}
	m := make(map[locKey]cachedLoc, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[k] = c
	locs.Store(&m)
}
