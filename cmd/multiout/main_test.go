package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestNoiseGolden pins `multiout -runs 100 -tool noise -v` byte for
// byte: every run's canonical outcome, then the distribution summary.
func TestNoiseGolden(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	savedOut, savedArgs, savedFlags := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = savedOut, savedArgs, savedFlags }()
	os.Stdout = f
	os.Args = []string{"multiout", "-runs", "100", "-tool", "noise", "-v"}
	flag.CommandLine = flag.NewFlagSet("multiout", flag.ContinueOnError)
	main()
	os.Stdout = savedOut

	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "noise-100.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
