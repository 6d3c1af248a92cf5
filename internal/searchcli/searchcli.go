// Package searchcli is the flag set and plumbing the search CLIs
// (cmd/explore, cmd/fuzz, cmd/pct) share, so the three stay one
// interface: -prog, -params, -list, -json, -first, -save, -replay,
// -cpuprofile and -memprofile mean the same thing in each. A command
// registers these next to its engine flags, then hands its search to
// Main, which owns program listing, profiling, program resolution and
// scenario replay. Scenario files are written by SaveScenario.
package searchcli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"mtbench/internal/core"
	"mtbench/internal/profiling"
	"mtbench/internal/replay"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// Flags are the parsed shared flags.
type Flags struct {
	Prog       string
	Params     string
	List       bool
	JSON       bool
	First      bool
	Save       string
	Replay     string
	CPUProfile string
	MemProfile string
}

// Search runs one command's engine over the resolved program and its
// parameter-applied body.
type Search func(prog *repository.Program, body func(core.T)) error

// Register defines the shared flags on fs; defaultProg is the -prog
// default.
func Register(fs *flag.FlagSet, defaultProg string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Prog, "prog", defaultProg, "repository program to search")
	fs.StringVar(&f.Params, "params", "", "program parameter overrides, k=v comma-separated (e.g. depositors=2,deposits=1)")
	fs.BoolVar(&f.List, "list", false, "list the registered programs and exit")
	fs.BoolVar(&f.JSON, "json", false, "emit one JSON object on stdout instead of text")
	fs.BoolVar(&f.First, "first", true, "stop at first bug")
	fs.StringVar(&f.Save, "save", "", "save the first failing scenario to this file")
	fs.StringVar(&f.Replay, "replay", "", "replay a saved scenario instead of searching")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write an allocation profile to this file on exit")
	return f
}

// Main runs the command and exits 1 with "tool: error" on failure.
func (f *Flags) Main(tool string, search Search) {
	if err := f.Run(search); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(1)
	}
}

// Run lists the programs under -list; otherwise it starts the
// requested profiles, resolves -prog and -params, and replays -replay
// or runs search.
func (f *Flags) Run(search Search) error {
	if f.List {
		ListPrograms(os.Stdout)
		return nil
	}
	stop, err := profiling.Start(f.CPUProfile, f.MemProfile)
	if err != nil {
		return err
	}
	defer stop()
	prog, err := repository.Get(f.Prog)
	if err != nil {
		return err
	}
	over, err := ParseParams(f.Params)
	if err != nil {
		return err
	}
	if err := checkParams(prog, over); err != nil {
		return err
	}
	body := prog.BodyWith(over)
	if f.Replay != "" {
		return f.replay(body)
	}
	return search(prog, body)
}

// ParseParams parses "k=v,k=v" program parameter overrides with
// integer values; "" means no overrides. Each name may appear once.
func ParseParams(s string) (repository.Params, error) {
	if s == "" {
		return nil, nil
	}
	out := repository.Params{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		n, err := strconv.Atoi(v)
		if !ok || k == "" || err != nil {
			return nil, fmt.Errorf("bad -params entry %q in %q (want name=integer)", kv, s)
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("bad -params entry %q in %q (%q is already set)", kv, s, k)
		}
		out[k] = n
	}
	return out, nil
}

// checkParams rejects overrides the program does not declare. A body
// reads only its Defaults keys, so any other name would be silently
// ignored and the search would run the default configuration.
func checkParams(prog *repository.Program, over repository.Params) error {
	var unknown []string
	for k := range over {
		if _, ok := prog.Defaults[k]; !ok {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	if len(prog.Defaults) == 0 {
		return fmt.Errorf("program %s takes no -params (got %s)", prog.Name, strings.Join(unknown, ", "))
	}
	accepted := make([]string, 0, len(prog.Defaults))
	for k := range prog.Defaults {
		accepted = append(accepted, k)
	}
	sort.Strings(accepted)
	return fmt.Errorf("program %s has no parameter %s (accepted: %s)",
		prog.Name, strings.Join(unknown, ", "), strings.Join(accepted, ", "))
}

// ListPrograms prints every registered program — including ones the
// rewrite pipeline registered through repository.Register — one per
// line, so scripts can discover instrumented packages by name.
func ListPrograms(w io.Writer) {
	for _, p := range repository.All() {
		fmt.Fprintf(w, "%-18s %-20s %s\n", p.Name, p.Kind, p.Synopsis)
	}
}

// replayReport is the -replay -json document.
type replayReport struct {
	Program   string `json:"program"`
	Decisions int    `json:"decisions"`
	Verdict   string `json:"verdict"`
	Diverged  bool   `json:"diverged"`
	Bug       string `json:"bug,omitempty"`
}

func (f *Flags) replay(body func(core.T)) error {
	s, err := replay.LoadFile(f.Replay)
	if err != nil {
		return err
	}
	if s.Program != f.Prog || s.Mode != "controlled" {
		return fmt.Errorf("scenario %s is a %q run of %q; -replay needs a \"controlled\" run of %q", f.Replay, s.Mode, s.Program, f.Prog)
	}
	res := replay.ReplayControlled(s, sched.Config{Name: f.Prog}, body)
	if !f.JSON {
		fmt.Printf("replayed scenario (%d decisions): %v\n", len(s.Decisions), res)
		return nil
	}
	out := replayReport{Program: f.Prog, Decisions: len(s.Decisions), Verdict: res.Verdict.String(), Diverged: res.Diverged}
	if res.Verdict.Bug() {
		out.Bug = core.BugSignature(res)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// JSONBug is the -json record of one found bug that cmd/fuzz and
// cmd/pct print; its field names are pinned independently of the
// engines' Go structs.
type JSONBug struct {
	Index     int    `json:"index"`
	Signature string `json:"signature"`
	Verdict   string `json:"verdict"`
	Decisions int    `json:"decisions"`
}

// JSONBugs returns log's bugs as -json records, in Index order. The
// slice is never nil, so an empty log serializes as [].
func JSONBugs(log *core.BugLog) []JSONBug {
	out := make([]JSONBug, 0, len(log.Bugs))
	for _, b := range log.Bugs {
		out = append(out, JSONBug{
			Index:     b.Index,
			Signature: core.BugSignature(b.Result),
			Verdict:   b.Result.Verdict.String(),
			Decisions: len(b.Schedule),
		})
	}
	return out
}

// SaveScenario writes a failing schedule's decisions to -save as a
// replayable scenario file; it does nothing when -save is unset. The
// confirmation goes to stdout, or to stderr under -json so stdout
// carries exactly one document.
func (f *Flags) SaveScenario(strategy string, seed int64, decisions []core.ThreadID) error {
	if f.Save == "" {
		return nil
	}
	s := &replay.Schedule{
		Program:   f.Prog,
		Mode:      "controlled",
		Seed:      seed,
		Strategy:  strategy,
		Decisions: append([]core.ThreadID(nil), decisions...),
	}
	if err := s.SaveFile(f.Save); err != nil {
		return err
	}
	dst := os.Stdout
	if f.JSON {
		dst = os.Stderr
	}
	fmt.Fprintf(dst, "saved failing scenario to %s (%d decisions)\n", f.Save, len(s.Decisions))
	return nil
}
