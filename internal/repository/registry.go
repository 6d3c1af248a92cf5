// Package repository is the benchmark's program collection (§4,
// component 1): multi-threaded programs with documented bugs, each with
// its bug kind, description, the variables involved (ground truth for
// race-detector accuracy accounting), test drivers (the bodies run
// under either runtime), and annotators for producing the documented
// trace artifacts.
//
// The collection spans the classic concurrency-bug taxonomy the IBM
// benchmark gathered: data races and atomicity violations, lock-order
// deadlocks, lost/misused notifications, order violations
// (sleep-as-synchronization, missing join), livelock, and — important
// for false-alarm measurement — correct programs whose synchronization
// confuses weaker tools.
package repository

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"

	"mtbench/internal/core"
	"mtbench/internal/instrument"
	"mtbench/internal/trace"
)

// SourceDir returns the directory holding this package's sources, so
// the static analyzer can parse the program bodies. It relies on the
// build embedding source paths; analyses require a source checkout.
func SourceDir() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return ""
	}
	return filepath.Dir(file)
}

// BodyFuncName returns the package-level function name implementing
// the program's body (e.g. "accountBody"), which is how static
// analysis results are joined back to registry entries.
func (p *Program) BodyFuncName() string {
	pc := reflect.ValueOf(p.Body).Pointer()
	fn := runtime.FuncForPC(pc)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	if i := len(name) - 1; i > 0 {
		for j := i; j >= 0; j-- {
			if name[j] == '.' {
				return name[j+1:]
			}
		}
	}
	return name
}

// Kind classifies a program's documented defect.
type Kind string

// Bug kinds.
const (
	KindNone      Kind = "none" // correct program (false-alarm bait / baseline)
	KindRace      Kind = "race"
	KindAtomicity Kind = "atomicity-violation"
	KindOrder     Kind = "order-violation"
	KindDeadlock  Kind = "deadlock"
	KindNotify    Kind = "notify"
	KindLivelock  Kind = "livelock"
)

// Params carries per-program integer knobs (thread counts, iteration
// counts) with defaults from the program's metadata.
type Params map[string]int

// Get returns the value of key or def.
func (p Params) Get(key string, def int) int {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// clone returns a copy so callers can override without aliasing.
func (p Params) clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Program is one benchmark entry.
type Program struct {
	// Name is the unique identifier used by the CLI and experiments.
	Name string
	// Synopsis is the one-line description.
	Synopsis string
	// Kind is the documented bug class.
	Kind Kind
	// Doc documents the bug: what goes wrong, under which interleaving,
	// and how it manifests (assertion, deadlock, step limit).
	Doc string
	// BugVars are the shared variables participating in the documented
	// bug — the "is this location involved in a bug" annotation for
	// traces, and the ground truth for counting a race warning as real.
	BugVars []string
	// BenignVars are variables a detector may flag even though the
	// program is correct (e.g. data handed over by ad-hoc
	// synchronization); warnings on them are counted as false alarms.
	BenignVars []string
	// Threads is the nominal thread count (including main) under
	// default parameters, for documentation.
	Threads int
	// Defaults are the default parameters.
	Defaults Params
	// Explorable, when non-nil, overrides Defaults down to the size a
	// systematic search can exhaust: what the campaign's default
	// matrix, the prepared experiments and the engine tests shrink the
	// program by. Programs small enough as they are leave it nil. The
	// sizes are set from one table, explorable.go.
	Explorable Params
	// Body is the test driver. It must use only the core.T API and
	// carry its own oracle (Assert); deadlocks are detected by the
	// runtimes.
	Body func(t core.T, p Params)
	// Plan, when non-nil, is the instrumentation plan the dynamic tools
	// attach to every run of this program. Hand-written repository
	// entries leave it nil (instrument everything); programs produced by
	// the rewrite pipeline carry the plan its escape analysis computed,
	// so provably thread-local accesses never reach the scheduler.
	Plan *instrument.Plan
}

// BodyWith binds parameters (defaults overridden by over) into a plain
// runnable body.
func (p *Program) BodyWith(over Params) func(core.T) {
	params := p.Defaults.clone()
	for k, v := range over {
		params[k] = v
	}
	return func(t core.T) { p.Body(t, params) }
}

// HasBug reports whether the program has a documented defect.
func (p *Program) HasBug() bool { return p.Kind != KindNone }

// Annotator returns the trace annotator implementing the benchmark's
// record documentation: why each record exists and whether its
// variable participates in the documented bug.
func (p *Program) Annotator() trace.Annotator {
	bug := make(map[string]bool, len(p.BugVars))
	for _, v := range p.BugVars {
		bug[v] = true
	}
	return func(ev *core.Event) (string, bool) {
		return trace.DefaultWhy(ev), ev.Name != "" && bug[ev.Name]
	}
}

// registry holds all programs, keyed by name.
var registry = map[string]*Program{}

// Register adds a program built outside this package — the hook the
// rewrite pipeline's generated registrations use. Unlike the internal
// init-time path it reports duplicates as errors, so a generated
// package colliding with a hand-written entry (or a double import of
// the same generated package) surfaces as a diagnosable failure
// instead of an init panic deep in the import graph.
func Register(p *Program) error {
	if p == nil || p.Name == "" {
		return fmt.Errorf("repository: Register needs a named program")
	}
	if p.Body == nil {
		return fmt.Errorf("repository: program %q has no body", p.Name)
	}
	if _, dup := registry[p.Name]; dup {
		return fmt.Errorf("repository: duplicate program %q", p.Name)
	}
	registry[p.Name] = p
	return nil
}

// MustRegister is Register for init functions: generated registration
// files call it at import time, where an error has nowhere to go but a
// panic.
func MustRegister(p *Program) *Program {
	if err := Register(p); err != nil {
		panic(err)
	}
	return p
}

// register adds a program at package init; duplicate names are
// programming errors.
func register(p *Program) *Program { return MustRegister(p) }

// All returns every program sorted by name.
func All() []*Program {
	out := make([]*Program, 0, len(registry))
	for _, p := range registry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Buggy returns the programs with documented defects, sorted by name.
func Buggy() []*Program {
	var out []*Program
	for _, p := range All() {
		if p.HasBug() {
			out = append(out, p)
		}
	}
	return out
}

// Correct returns the defect-free programs, sorted by name.
func Correct() []*Program {
	var out []*Program
	for _, p := range All() {
		if !p.HasBug() {
			out = append(out, p)
		}
	}
	return out
}

// Get returns a program by name.
func Get(name string) (*Program, error) {
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("repository: unknown program %q", name)
	}
	return p, nil
}
