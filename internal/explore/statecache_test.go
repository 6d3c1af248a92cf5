package explore

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"mtbench/internal/repository"
)

// refEnt and refCache are the state cache with each summary inline in
// its slot, the layout the arena replaced: the reference FuzzStateCache
// holds the arena layout to. The direct-mapped placement, the
// overwrite-on-collision policy and the generation scheme are the
// cache's own; only the storage differs. Slots live in a map so a fuzz
// input does not allocate a 7 MB table.
type refEnt struct {
	hash  uint64
	sleep threadSet
	gen   uint32
	nsum  uint8
	sum   [subCap]uint64
}

type refCache struct {
	gen  uint32
	ents map[uint64]*refEnt
}

func newRefCache() *refCache { return &refCache{gen: 1, ents: map[uint64]*refEnt{}} }

func (c *refCache) reset() {
	c.gen++
	if c.gen == 0 {
		clear(c.ents)
		c.gen = 1
	}
}

func (c *refCache) lookup(hash uint64, sleep threadSet) ([]uint64, bool) {
	e := c.ents[hash&(stateCacheSize-1)]
	if e == nil || e.gen != c.gen || e.hash != hash || e.sleep&^sleep != 0 {
		return nil, false
	}
	return e.sum[:e.nsum], true
}

func (c *refCache) insert(hash uint64, sleep threadSet, sum []uint64) {
	i := hash & (stateCacheSize - 1)
	e := c.ents[i]
	if e == nil {
		e = new(refEnt)
		c.ents[i] = e
	}
	e.hash, e.sleep, e.gen = hash, sleep, c.gen
	e.nsum = uint8(len(sum))
	copy(e.sum[:], sum)
}

// FuzzStateCache decodes a byte string into a sequence of cache calls
// and runs it on a state cache and on the inline reference: every
// lookup must return the same verdict and summary words from both, and
// after every call no stripe's arena may hold more than its slots'
// inline worth (arenaCap words).
//
// Each call is an opcode byte followed by its operands:
//
//	0 insert   slot/tag byte, sleep byte, length byte, content byte
//	1 lookup   slot/tag byte, sleep byte
//	2 reset
//	3 jump     the generation to its maximum, so the next reset wraps
//	4 sweep    stripe byte, length byte: insert into every slot of a
//	           stripe but the four the other calls address, which
//	           fills its arena and forces compactions around them
//
// The slot/tag byte picks one of eight slots — four on each of two
// stripes — and one of four hashes placed there, so inserts collide and
// overwrite. A reset must leave every arena empty. Summaries are
// 0..subCap words. An input runs at most
// maxFuzzCalls calls and maxFuzzSweeps sweeps (later sweeps are
// skipped), so one long input cannot stall the fuzzer.
const maxFuzzCalls, maxFuzzSweeps = 256, 4

func FuzzStateCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ref := newStateCache(), newRefCache()
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// slotHash spreads a byte over slots 0, 32, ..., 224 (stripes 0
		// and 32 alternate) and four tags per slot.
		slotHash := func(b byte) uint64 { return uint64(b>>3&3)<<32 | uint64(b&7)*32 }
		summary := func(n, content byte) []uint64 {
			sum := make([]uint64, int(n)%(subCap+1))
			for k := range sum {
				sum[k] = uint64(content)<<16 | uint64(k)
			}
			return sum
		}
		var buf []uint64
		sweeps := 0
		for step := 0; len(data) > 0 && step < maxFuzzCalls; step++ {
			switch op := next() % 5; op {
			case 0:
				h, sleep := slotHash(next()), threadSet(next()&3)
				sum := summary(next(), next())
				c.insert(h, sleep, sum)
				ref.insert(h, sleep, sum)
			case 1:
				h, sleep := slotHash(next()), threadSet(next()&3)
				var ok bool
				buf, ok = c.lookup(h, sleep, buf[:0])
				want, wantOK := ref.lookup(h, sleep)
				if ok != wantOK || !slices.Equal(buf, want) {
					t.Fatalf("step %d: lookup(%#x, %b) = %v %v, reference %v %v", step, h, sleep, buf, ok, want, wantOK)
				}
			case 2:
				c.reset()
				ref.reset()
				for s := range c.stripes {
					if n := len(c.stripes[s].arena); n != 0 {
						t.Fatalf("step %d: stripe %d arena holds %d words after a reset", step, s, n)
					}
				}
			case 3:
				c.gen, ref.gen = math.MaxUint32, math.MaxUint32
			case 4:
				stripe := uint64(next()&1) * 32
				sum := summary(next(), byte(step))
				if sweeps++; sweeps > maxFuzzSweeps {
					break
				}
				for i := stripe + 4*cacheStripes; i < stateCacheSize; i += cacheStripes {
					h := uint64(step)<<32 | i
					c.insert(h, 0, sum)
					ref.insert(h, 0, sum)
				}
			}
			for s := range c.stripes {
				if a := c.stripes[s].arena; len(a) > arenaCap || cap(a) > arenaCap {
					t.Fatalf("step %d: stripe %d arena holds %d words (capacity %d) > %d", step, s, len(a), cap(a), arenaCap)
				}
			}
		}
		// Every entry the reference holds must read back whole.
		for i, e := range ref.ents {
			got, ok := c.lookup(e.hash, ^threadSet(0), buf[:0])
			want, wantOK := ref.lookup(e.hash, ^threadSet(0))
			if ok != wantOK || !slices.Equal(got, want) {
				t.Fatalf("slot %d at the end: %v %v, reference %v %v", i, got, ok, want, wantOK)
			}
		}
	})
}

// cacheFootprint is the memory a cache holds on to: its slot table and
// its arenas' capacities, in bytes.
func cacheFootprint(c *stateCache) int {
	n := len(c.slots) * int(unsafe.Sizeof(cacheSlot{}))
	for i := range c.stripes {
		n += cap(c.stripes[i].arena) * 8
	}
	return n
}

// TestStateCacheFootprint pins what the state cache costs: 32-byte
// slots, no allocation on a warm reset, insert and lookup, and a pooled
// cache holding under 2 MB after exhausting the two largest
// exhaust-short programs (an inline-summary table held 7 MB whatever
// it stored).
func TestStateCacheFootprint(t *testing.T) {
	if size := unsafe.Sizeof(cacheSlot{}); size > 32 {
		t.Errorf("cacheSlot is %d bytes, want <= 32", size)
	}

	c := newStateCache()
	sum := make([]uint64, subCap)
	buf := make([]uint64, 0, subCap)
	c.insert(1, 0, sum)
	allocs := testing.AllocsPerRun(100, func() {
		c.reset()
		c.insert(1, 0, sum)
		var ok bool
		if buf, ok = c.lookup(1, 0, buf[:0]); !ok || len(buf) != subCap {
			t.Fatal("warm cache misses the state it just stored")
		}
	})
	if allocs != 0 {
		t.Errorf("warm reset, insert and lookup allocate %.1f times, want 0", allocs)
	}

	// Empty the pool, so the two searches share one fresh cache and the
	// pool then holds exactly that one.
	kitMu.Lock()
	cacheFree = nil
	kitMu.Unlock()
	for _, p := range exhaustShort[:2] {
		prog, err := repository.Get(p.name)
		if err != nil {
			t.Fatal(err)
		}
		res := Explore(Options{MaxSchedules: 200000, Workers: 1, DPOR: true, StateCache: true}, prog.BodyWith(p.params))
		if res.Err != nil || !res.Exhausted {
			t.Fatalf("%s%v: err=%v exhausted=%v", p.name, p.params, res.Err, res.Exhausted)
		}
	}
	kitMu.Lock()
	pooled := slices.Clone(cacheFree)
	kitMu.Unlock()
	if len(pooled) != 1 {
		t.Fatalf("%d pooled caches after two serial searches, want 1", len(pooled))
	}
	const limit = 2 << 20
	fp := cacheFootprint(pooled[0])
	t.Logf("pooled state cache holds %d KB", fp>>10)
	if fp > limit {
		t.Errorf("pooled state cache holds %d bytes after philosophers{3,1} and account{3,1}, want <= %d", fp, limit)
	}
}
