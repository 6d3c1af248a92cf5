package core

import "testing"

// classCommutes is the five-class dependence table DepClass documents,
// written out independently of Commutes.
func classCommutes(a, b Footprint) bool {
	ca, cb := a.Class(), b.Class()
	switch {
	case ca == ClassUniversal || cb == ClassUniversal:
		return false
	case ca == ClassLocal || cb == ClassLocal:
		return true
	case ca == ClassFork || cb == ClassFork:
		return ca != cb
	case a.Obj != b.Obj:
		return true
	}
	return ca == ClassRead && cb == ClassRead
}

// FuzzCommutes checks the properties the DFS engine's last-dependent
// index relies on, for arbitrary operation kinds (out-of-range ones
// included), Local flags and object handles: Commutes is symmetric,
// footprints survive Packed/UnpackFootprint, and Commutes agrees with
// the five-class table. Seeds live in testdata/fuzz/FuzzCommutes; run
//
//	go test -run=NONE -fuzz=FuzzCommutes -fuzztime=10s ./internal/core
func FuzzCommutes(f *testing.F) {
	f.Fuzz(func(t *testing.T, opA, opB uint8, localA, localB bool, objA, objB uint32) {
		a := Footprint{Op: Op(opA), Local: localA, Obj: objA}
		b := Footprint{Op: Op(opB), Local: localB, Obj: objB}
		if ab, ba := a.Commutes(b), b.Commutes(a); ab != ba {
			t.Fatalf("asymmetric: %v.Commutes(%v) = %v, reverse %v", a, b, ab, ba)
		}
		for _, fp := range []Footprint{a, b} {
			if back := UnpackFootprint(fp.Packed()); back != fp {
				t.Fatalf("UnpackFootprint(%v.Packed()) = %v", fp, back)
			}
		}
		if got, want := a.Commutes(b), classCommutes(a, b); got != want {
			t.Fatalf("%v.Commutes(%v) = %v, class table (%d, %d) says %v",
				a, b, got, a.Class(), b.Class(), want)
		}
	})
}
