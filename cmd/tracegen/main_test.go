package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownFormatWritesNothing: an unknown -format is refused before
// the output directory or any trace file is created.
func TestUnknownFormatWritesNothing(t *testing.T) {
	dir := t.TempDir()
	err := run("account", 2, "noise", 0.4, "bogus", dir, false)
	if err == nil || !strings.Contains(err.Error(), `unknown format "bogus"`) {
		t.Fatalf("run with -format bogus: err = %v, want unknown format", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("output directory not empty after a refused format: %v", entries)
	}
}

// TestFormatsWriteTraces: each known format writes one file per seed
// with its extension.
func TestFormatsWriteTraces(t *testing.T) {
	for format, codec := range formats {
		dir := t.TempDir()
		if err := run("account", 1, "noise", 0.4, format, dir, false); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		info, err := os.Stat(filepath.Join(dir, "account-0."+codec.ext))
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s: empty trace file", format)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestTracesGolden pins every file `tracegen -prog account -seeds 2`
// writes, byte for byte, in each format.
func TestTracesGolden(t *testing.T) {
	for format, codec := range formats {
		dir := t.TempDir()
		if err := run("account", 2, "noise", 0.4, format, dir, false); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		for seed := 0; seed < 2; seed++ {
			name := fmt.Sprintf("account-%d.%s", seed, codec.ext)
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", name)
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s", name, golden)
			}
		}
	}
}
