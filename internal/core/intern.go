package core

import (
	"strconv"
	"sync"
)

// The interners below give the hot paths integer handles for the two
// string vocabularies every run re-uses: symbolic object names
// ("balance", "forks[0]") and program points ("prog_races.go:57").
// Both vocabularies are tiny and stable — a benchmark program names a
// handful of objects and touches a handful of source lines — while the
// event stream repeats them millions of times per search. Interning
// turns the per-event map keys consumers build (coverage trackers in
// particular) from string hashing and fmt.Sprintf into integer
// compares, and it is global so handles stay comparable across runs,
// workers and runtimes (the property cumulative trackers need).
//
// Handle 0 is reserved as "not interned": event producers that do not
// intern (the native runtime, hand-built test events) leave the ID
// fields zero and consumers intern on demand.

// interner is one string table: read-mostly, guarded by an RWMutex.
type interner struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string // index id-1 -> string
}

func (in *interner) intern(s string) uint32 {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[s]; ok {
		return id
	}
	if in.ids == nil {
		in.ids = make(map[string]uint32)
	}
	in.strs = append(in.strs, s)
	id = uint32(len(in.strs))
	in.ids[s] = id
	return id
}

func (in *interner) lookup(s string) (uint32, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	id, ok := in.ids[s]
	return id, ok
}

func (in *interner) resolve(id uint32) string {
	if id == 0 {
		return ""
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if int(id) > len(in.strs) {
		return ""
	}
	return in.strs[id-1]
}

var (
	nameTable interner // symbolic object names
	locTable  interner // "file:line" program-point keys
)

// InternName returns the stable handle for a symbolic object name.
// The empty string interns to 0 ("no name").
func InternName(s string) uint32 {
	if s == "" {
		return 0
	}
	return nameTable.intern(s)
}

// LookupName returns the handle a name was interned under, without
// interning it; ok is false when the name has never been seen.
func LookupName(s string) (uint32, bool) { return nameTable.lookup(s) }

// InternedName resolves a name handle back to the string ("" for 0 or
// unknown handles).
func InternedName(id uint32) string { return nameTable.resolve(id) }

// InternedNameHash returns a content hash of the name behind a handle
// (FNV-1a over its bytes; "" for 0 and unknown handles). Handles depend
// on the order names were first interned in, process-wide; the hash
// does not, so a hash folded from it is the same in every process.
func InternedNameHash(id uint32) uint64 {
	h := HashOffset
	for _, c := range []byte(nameTable.resolve(id)) {
		h = FoldHash(h, uint64(c))
	}
	return h
}

// InternLocKey returns the stable handle for the "file:line" form of a
// program point — the same string Location.Key formats. Two call sites
// on the same source line share a handle, exactly as they share a Key.
func InternLocKey(file string, line int) uint32 {
	if file == "" {
		return 0
	}
	return locTable.intern(file + ":" + strconv.Itoa(line))
}

// InternedLocKey resolves a program-point handle back to its
// "file:line" key ("" for 0 or unknown handles).
func InternedLocKey(id uint32) string { return locTable.resolve(id) }
