package core

import (
	"math/rand"
	"testing"
)

// FuzzRandMatchesMathRand checks NewRand against the stock source for
// arbitrary seeds: the first draws Uint64 outputs must be equal, and
// so must the outputs after reseeding the used rng with the seed's
// complement. Seeds live in testdata/fuzz/FuzzRandMatchesMathRand; run
//
//	go test -run=NONE -fuzz=FuzzRandMatchesMathRand -fuzztime=10s ./internal/core
func FuzzRandMatchesMathRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got := NewRand(seed)
		for _, s := range []int64{seed, ^seed} {
			got.Seed(s)
			want := rand.New(rand.NewSource(s))
			for i := 0; i < int(draws); i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", s, i, g, w)
				}
			}
		}
	})
}
