package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestMultioutGolden pins E7's full default table byte for byte: every
// tool's distinct-outcome count, entropy and top share over 100 runs.
func TestMultioutGolden(t *testing.T) {
	tables, err := Multiout(MultioutConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := RenderAll(&got, tables); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "e7.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("E7 differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got.Bytes(), want)
	}
}
