package searchcli

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseParams checks the -params parser on arbitrary input: it
// never panics, and any string it accepts round-trips, so re-joining the
// parsed map as k=v,... parses back to the same map. Seeds live in
// testdata/fuzz/FuzzParseParams; run
//
//	go test -run=NONE -fuzz=FuzzParseParams -fuzztime=10s ./internal/searchcli
func FuzzParseParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseParams(s)
		if err != nil {
			return
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		entries := make([]string, len(keys))
		for i, k := range keys {
			entries[i] = k + "=" + strconv.Itoa(got[k])
		}
		joined := strings.Join(entries, ",")
		again, err := ParseParams(joined)
		if err != nil {
			t.Fatalf("ParseParams(%q) = %v, but its re-join %q is rejected: %v", s, got, joined, err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("ParseParams(%q) = %v, but its re-join %q parses to %v", s, got, joined, again)
		}
	})
}
