package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameStream draws from got and want through every rand.Rand method the
// finders use, failing at the first difference.
func sameStream(t *testing.T, seed int64, got, want *rand.Rand, draws int) {
	t.Helper()
	for i := 0; i < draws; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, i, g, w)
		}
	}
	for i, n := range []int{1, 2, 3, 7, 1000, 1 << 30, math.MaxInt32 + 1, math.MaxInt64} {
		if g, w := got.Intn(n), want.Intn(n); g != w {
			t.Fatalf("seed %d: Intn(%d) #%d = %d, math/rand %d", seed, n, i, g, w)
		}
		if g, w := got.Int63n(int64(n)), want.Int63n(int64(n)); g != w {
			t.Fatalf("seed %d: Int63n(%d) #%d = %d, math/rand %d", seed, n, i, g, w)
		}
	}
	for i := 0; i < 50; i++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d: Float64 #%d = %v, math/rand %v", seed, i, g, w)
		}
	}
	if g, w := got.Perm(40), want.Perm(40); !slices.Equal(g, w) {
		t.Fatalf("seed %d: Perm(40) = %v, math/rand %v", seed, g, w)
	}
	g, w := make([]int, 50), make([]int, 50)
	for i := range g {
		g[i], w[i] = i, i
	}
	got.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	want.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	if !slices.Equal(g, w) {
		t.Fatalf("seed %d: Shuffle = %v, math/rand %v", seed, g, w)
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("seed %d: Int63 after methods = %d, math/rand %d", seed, g, w)
	}
}

// TestRandMatchesMathRand pins NewRand's stream to the stock
// rand.New(rand.NewSource(seed)) over seeds that exercise the seed
// normalisation (zero, negatives, multiples of 2^31−1, the 0 →
// 89482311 alias, the int64 extremes) plus random ones, and again
// after reseeding a used rng mid-stream.
func TestRandMatchesMathRand(t *testing.T) {
	const m = lehmerMod
	seeds := []int64{
		0, 1, -1, 89482311, -89482311, m, -m, 2 * m, -2 * m, 7 * m, -7 * m,
		m - 1, m + 1, -m - 1, 1 << 62, -1 << 62, math.MinInt64, math.MaxInt64,
		0x5DEECE66D, -0x5DEECE66D,
	}
	meta := rand.New(rand.NewSource(20260417))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(meta.Uint64()))
	}
	for _, seed := range seeds {
		got := NewRand(seed)
		sameStream(t, seed, got, rand.New(rand.NewSource(seed)), 3000)
		// Reseed a used rng, as the fuzz workers do per candidate.
		reseed := seed ^ 0x3c6ef372fe94f82b
		got.Seed(reseed)
		sameStream(t, reseed, got, rand.New(rand.NewSource(reseed)), 700)
	}
}

// BenchmarkReseed compares the stock reseed with NewRand's, each
// followed by 100 draws (a typical short run's consumption).
func BenchmarkReseed(b *testing.B) {
	for _, bc := range []struct {
		name string
		r    *rand.Rand
	}{
		{"stock", rand.New(rand.NewSource(1))},
		{"lazy", NewRand(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				bc.r.Seed(int64(i))
				for j := 0; j < 100; j++ {
					sink += bc.r.Uint64()
				}
			}
			benchSink = sink
		})
	}
}

var benchSink uint64
