package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestRefusesNonPositiveRuns: a run count below one is refused like an
// unknown tool, before anything runs or prints.
func TestRefusesNonPositiveRuns(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	savedOut := os.Stdout
	defer func() { os.Stdout = savedOut }()
	os.Stdout = f
	for _, runs := range []string{"0", "-3"} {
		err := run([]string{"-runs", runs, "-tool", "noise"})
		if err == nil || !strings.Contains(err.Error(), "-runs must be positive") {
			t.Errorf("-runs %s: error %v, want a refusal", runs, err)
		}
	}
	os.Stdout = savedOut
	if out, _ := os.ReadFile(f.Name()); len(out) != 0 {
		t.Errorf("refused runs printed %q", out)
	}
}

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
