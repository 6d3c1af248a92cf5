package searchcli

import (
	"flag"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/explore"
	"mtbench/internal/replay"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

func TestParseParams(t *testing.T) {
	got, err := ParseParams("depositors=2, deposits=1")
	if err != nil {
		t.Fatal(err)
	}
	if want := (repository.Params{"depositors": 2, "deposits": 1}); !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseParams = %v, want %v", got, want)
	}
	if got, err := ParseParams(""); got != nil || err != nil {
		t.Fatalf(`ParseParams("") = %v, %v; want no overrides`, got, err)
	}
}

// TestParseParamsRejectsMalformed: every malformed entry is an error
// that names the entry.
func TestParseParamsRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ in, entry string }{
		{"a", "a"},
		{"a=", "a="},
		{"=1", "=1"},
		{"a=x", "a=x"},
		{"a=1,,b=2", ""},
		{"a=1,a=2", "a=2"},
	} {
		_, err := ParseParams(tc.in)
		if err == nil {
			t.Errorf("ParseParams(%q) accepted malformed input", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), "entry "+strconv.Quote(tc.entry)) {
			t.Errorf("ParseParams(%q) error %q does not name entry %q", tc.in, err, tc.entry)
		}
	}
}

// TestRunRejectsUndeclaredParams: Run refuses an override the program
// does not declare, naming the accepted parameters (or saying there are
// none), and hands a declared one to the search.
func TestRunRejectsUndeclaredParams(t *testing.T) {
	run := func(prog, params string) (searched bool, err error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := Register(fs, prog)
		if err := fs.Parse([]string{"-params", params}); err != nil {
			t.Fatal(err)
		}
		err = f.Run(func(*repository.Program, func(core.T)) error {
			searched = true
			return nil
		})
		return searched, err
	}

	searched, err := run("account", "depositor=2")
	if err == nil || searched {
		t.Fatalf("account depositor=2: searched=%v err=%v, want an error and no search", searched, err)
	}
	for _, name := range []string{"depositor", "depositors", "deposits"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("account depositor=2: error %q does not name %q", err, name)
		}
	}

	if searched, err := run("account", "depositors=2"); err != nil || !searched {
		t.Fatalf("account depositors=2: searched=%v err=%v, want a search", searched, err)
	}

	prog, err := repository.Get("gatedinversion")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Defaults) != 0 {
		t.Fatalf("gatedinversion declares %v; the test needs a program without parameters", prog.Defaults)
	}
	searched, err = run("gatedinversion", "bogus=7")
	if err == nil || searched {
		t.Fatalf("gatedinversion bogus=7: searched=%v err=%v, want an error and no search", searched, err)
	}
	if !strings.Contains(err.Error(), "takes no -params") || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("gatedinversion bogus=7: error %q does not say the program takes no parameters", err)
	}
}

// TestSaveScenarioReplays: a scenario written by SaveScenario loads back
// through replay.LoadFile and replays to the verdict that saved it.
func TestSaveScenarioReplays(t *testing.T) {
	prog, err := repository.Get("inversion")
	if err != nil {
		t.Fatal(err)
	}
	body := prog.BodyWith(nil)
	res := explore.Explore(explore.Options{Workers: 1, StopAtFirstBug: true}, body)
	if len(res.Bugs) == 0 {
		t.Fatal("explore found no inversion deadlock")
	}
	bug := res.Bugs[0]

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "inversion")
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := fs.Parse([]string{"-json", "-save", path}); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveScenario("explore-dfs", 0, bug.Schedule); err != nil {
		t.Fatal(err)
	}

	s, err := replay.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Program != "inversion" || s.Strategy != "explore-dfs" {
		t.Errorf("scenario header = %q/%q", s.Program, s.Strategy)
	}
	got := replay.ReplayControlled(s, sched.Config{Name: "inversion"}, body)
	if got.Diverged || got.Verdict != bug.Result.Verdict || core.BugSignature(got) != core.BugSignature(bug.Result) {
		t.Fatalf("replay = %v (diverged=%v), want %v", got, got.Diverged, bug.Result)
	}
}

// TestReplayRejectsForeignScenario: -replay refuses a scenario recorded
// for another program or in native mode, naming the scenario's value
// and the expected one, instead of replaying it to a meaningless
// verdict.
func TestReplayRejectsForeignScenario(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, prog string
		s          replay.Schedule
		want       []string
	}{
		{"program", "statmax", replay.Schedule{Program: "account", Mode: "controlled", Decisions: []core.ThreadID{0, 1}},
			[]string{`"account"`, `"statmax"`}},
		{"mode", "account", replay.Schedule{Program: "account", Mode: "native"},
			[]string{`"native"`, `"controlled"`}},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.name+".json")
		if err := c.s.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := Register(fs, c.prog)
		if err := fs.Parse([]string{"-json", "-replay", path}); err != nil {
			t.Fatal(err)
		}
		err := f.Run(func(*repository.Program, func(core.T)) error {
			t.Fatalf("%s: -replay ran the search", c.name)
			return nil
		})
		if err == nil {
			t.Fatalf("%s: replay of a foreign scenario succeeded", c.name)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", c.name, err, w)
			}
		}
	}
}
