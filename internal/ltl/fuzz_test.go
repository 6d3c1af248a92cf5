package ltl

import "testing"

// FuzzLTLParse checks the property parser on arbitrary input: it never
// panics, and any formula it accepts round-trips, so parsing its String
// form renders the same string again. Seeds (the Parse doc examples)
// live in testdata/fuzz/FuzzLTLParse; run
//
//	go test -run=NONE -fuzz=FuzzLTLParse -fuzztime=10s ./internal/ltl
func FuzzLTLParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		got, err := Parse(src)
		if err != nil {
			return
		}
		s := got.String()
		again, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) = %s, which does not parse: %v", src, s, err)
		}
		if again.String() != s {
			t.Fatalf("Parse(%q) = %s, which parses to %s", src, s, again.String())
		}
	})
}
