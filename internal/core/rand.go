package core

import "math/rand"

// Every randomized finder seeds an rng per run (building it, or
// reseeding the one its previous run used), and a run must be
// reproducible from its seed: rand.New(rand.NewSource(seed))'s
// stream is part of the fixed-seed contract the goldens pin. Stock
// seeding regenerates the whole 607-word additive lagged Fibonacci
// state up front (~1,840 serial Lehmer steps), which dominated short
// runs that draw a few dozen numbers. NewRand keeps the stream bit for
// bit and defers the work: each state word is computed on its first
// read, straight from the seed, in three multiplications.

const (
	lehmerMod  = 1<<31 - 1 // math/rand's seeding generator: x' = 48271·x mod (2^31−1)
	lehmerMul  = 48271
	lehmerSkip = 20 // Lehmer steps math/rand discards before state word 0
	rngLen     = 607
	rngTap     = 273
)

// seedPow[i][j] is 48271^(lehmerSkip+3i+j+1) mod (2^31−1): the
// multiplier that takes a normalised seed straight to the j-th Lehmer
// value state word i is built from.
var seedPow = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for k := 0; k < lehmerSkip; k++ {
		x = mulMod(x, lehmerMul)
	}
	for i := range p {
		for j := range p[i] {
			x = mulMod(x, lehmerMul)
			p[i][j] = x
		}
	}
	return p
}()

// rngCooked is math/rand's private table of per-word XOR masks. It is
// recovered once from the installed math/rand rather than copied: the
// first rngLen outputs of a seeded stock source determine its seeded
// state exactly, and the mask is that state XOR the Lehmer part.
var rngCooked = func() (cooked [rngLen]uint64) {
	const seed = 1
	ref := rand.NewSource(seed).(rand.Source64)
	var y, v [rngLen]uint64
	for k := range y {
		y[k] = ref.Uint64()
	}
	// Output k adds state word feed = (rngLen−rngTap−1−k) mod rngLen
	// to word tap = rngLen−1−k. From k = rngTap on, the tap word is
	// output k−rngTap, and the feed word has not been written yet.
	for k := rngTap; k < rngLen; k++ {
		v[(2*rngLen-rngTap-1-k)%rngLen] = y[k] - y[k-rngTap]
	}
	// Before that, both words are still as seeded, and the tap word
	// was recovered above.
	for k := 0; k < rngTap; k++ {
		v[rngLen-rngTap-1-k] = y[k] - v[rngLen-1-k]
	}
	for i := range cooked {
		cooked[i] = v[i] ^ lehmerWord(seed, i)
	}
	return cooked
}()

// mulMod returns a·b mod (2^31−1) for a, b < 2^31−1, folding the
// product with the Mersenne identity 2^31 ≡ 1 instead of dividing.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerMod + p>>31
	if r >= lehmerMod {
		r -= lehmerMod
	}
	return r
}

// lehmerWord is the part of state word i that math/rand derives from
// the normalised seed x, before the rngCooked mask.
func lehmerWord(x uint64, i int) uint64 {
	p := &seedPow[i]
	return mulMod(x, p[0])<<40 ^ mulMod(x, p[1])<<20 ^ mulMod(x, p[2])
}

// NewRand returns an rng whose every draw, through every rand.Rand
// method, equals that of rand.New(rand.NewSource(seed)), also after a
// Seed call. Seeding costs O(1); the state fills in as it is read.
// Use it for every per-run rng.
func NewRand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}

// Reseed restarts rng's stream at seed in place, as a fresh
// NewRand(seed) would draw it, and returns it; a nil rng is built. It
// is how a finder that reuses its per-run objects seeds each run.
func Reseed(rng *rand.Rand, seed int64) *rand.Rand {
	if rng == nil {
		return NewRand(seed)
	}
	rng.Seed(seed)
	return rng
}

// lazySource is math/rand's additive lagged Fibonacci source with
// state words computed on first read. Draw k reads the words at feed
// (rngLen−rngTap−1−k) mod rngLen and tap rngLen−1−k, so the order of
// first reads is fixed: the first rngTap draws read two seeded words
// each, the next rngLen−2·rngTap−1 draws only the feed word, and every
// later draw reads words earlier draws already filled in.
type lazySource struct {
	tap, feed int
	x         uint64 // normalised seed
	n         int    // draws since Seed, counted up to rngLen−rngTap
	vec       [rngLen]uint64
}

// Seed implements rand.Source. It normalises the seed exactly as
// math/rand does and invalidates the state.
func (s *lazySource) Seed(seed int64) {
	s.tap, s.feed, s.n = 0, rngLen-rngTap, 0
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x = uint64(seed)
}

// fill computes the seeded words the current draw reads first.
func (s *lazySource) fill() {
	if s.n < rngTap {
		s.vec[s.tap] = lehmerWord(s.x, s.tap) ^ rngCooked[s.tap]
	}
	s.vec[s.feed] = lehmerWord(s.x, s.feed) ^ rngCooked[s.feed]
	s.n++
}

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.n < rngLen-rngTap {
		s.fill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
