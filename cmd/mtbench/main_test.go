package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// captureStdout returns what fn writes to os.Stdout.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("%s: output differs from the golden file\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestRunRefusesNonPositiveRuns: a run count below one is refused like
// an unknown program, before anything runs or prints.
func TestRunRefusesNonPositiveRuns(t *testing.T) {
	for _, runs := range []string{"0", "-3"} {
		var err error
		out := captureStdout(t, func() {
			err = run([]string{"-prog", "account", "-runs", runs})
		})
		if err == nil || !strings.Contains(err.Error(), "-runs must be positive") {
			t.Errorf("-runs %s: error %v, want a refusal", runs, err)
		}
		if len(out) != 0 {
			t.Errorf("-runs %s printed %q", runs, out)
		}
	}
}

// TestRunGolden pins `mtbench run -prog account -runs 50 -v` byte for
// byte under each seeded tool: the exposed-run count, the verdict
// histogram and every bug run's one-line result.
func TestRunGolden(t *testing.T) {
	for _, tool := range []string{"noise", "pct", "random", "dispatch"} {
		var err error
		out := captureStdout(t, func() {
			err = run([]string{"-prog", "account", "-strategy", tool, "-runs", "50", "-v"})
		})
		if err != nil {
			t.Fatalf("%s: %v", tool, err)
		}
		checkGolden(t, "run-account-"+tool+".golden", out)
	}
}
