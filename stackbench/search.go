package main

import (
	"fmt"
	"slices"
	"strings"

	"mtbench/internal/core"
	"mtbench/internal/explore"
	"mtbench/internal/repository"
)

// search is one exploration the benchmark repeats, checked against what
// its warm-up found.
type search struct {
	label string
	body  func(core.T)
	opts  explore.Options
	// exhaust requires every run to exhaust the tree; schedules, when
	// positive, is the exact schedule count every run must report.
	exhaust   bool
	schedules int
	bugs      string // the warm-up's bug-signature set
}

func newSearch(prog string, params repository.Params, label string, opts explore.Options) (*search, error) {
	p, err := repository.Get(prog)
	if err != nil {
		return nil, err
	}
	opts.Name = prog
	opts.Plan = p.Plan
	return &search{label: label, body: p.BodyWith(params), opts: opts}, nil
}

// learn runs the warm-up: it must itself pass the structural checks,
// and its bug set (and, for a serial exhaustion, its schedule count)
// becomes what every later run must reproduce.
func (s *search) learn() error {
	res := explore.Explore(s.opts, s.body)
	if res.Err != nil {
		return fmt.Errorf("%s: warm-up: %w", s.label, res.Err)
	}
	if s.exhaust && !res.Exhausted {
		return fmt.Errorf("%s: warm-up did not exhaust the tree in %d schedules", s.label, res.Schedules)
	}
	if s.exhaust && s.opts.Workers == 1 {
		s.schedules = res.Schedules
	}
	s.bugs = bugSet(res)
	if fail := s.check(res); fail != "" {
		return fmt.Errorf("warm-up: %s", fail)
	}
	return nil
}

// run executes the search once, as a child of parent when traced, and
// returns its result, its traced duration in ns (0 untraced) and a
// failure message ("" when every check holds).
func (s *search) run(tr *tracer, parent int64) (*explore.Result, int64, string) {
	id := tr.begin(parent, "explore", "explore.Explore", s.label)
	res := explore.Explore(s.opts, s.body)
	ns := tr.end(id)
	return res, ns, s.check(res)
}

func (s *search) check(res *explore.Result) string {
	switch {
	case res.Err != nil:
		return fmt.Sprintf("%s: %v", s.label, res.Err)
	case s.exhaust && !res.Exhausted:
		return fmt.Sprintf("%s: tree not exhausted after %d schedules", s.label, res.Schedules)
	case s.schedules > 0 && res.Schedules != s.schedules:
		return fmt.Sprintf("%s: %d schedules, want %d", s.label, res.Schedules, s.schedules)
	case bugSet(res) != s.bugs:
		return fmt.Sprintf("%s: bug set changed: %q, want %q", s.label, bugSet(res), s.bugs)
	}
	return ""
}

// bugSet is the sorted, deduplicated bug-signature set of a search.
func bugSet(res *explore.Result) string {
	sigs := make([]string, 0, len(res.Bugs))
	for _, b := range res.Bugs {
		sigs = append(sigs, core.BugSignature(b.Result))
	}
	slices.Sort(sigs)
	return strings.Join(slices.Compact(sigs), "\n")
}

// switchCounter is the listener the traced run attaches to serial
// searches: it counts runs and thread changes between consecutive
// events, the handoffs the decomposition charges at sched.switch_ns.
type switchCounter struct {
	last     core.ThreadID
	runs     int
	switches int
}

func (c *switchCounter) OnEvent(ev *core.Event) {
	if ev.Thread != c.last {
		c.switches++
		c.last = ev.Thread
	}
}

func (c *switchCounter) RunStart(core.RunInfo) { c.runs++; c.last = 0 }
func (c *switchCounter) RunEnd(*core.Result)   {}

// NeedsLocations keeps source-location capture off, as in an untraced
// search.
func (c *switchCounter) NeedsLocations() bool { return false }

// countSwitches reruns a serial search with a switchCounter attached.
func countSwitches(s *search) (switches, runs int) {
	c := &switchCounter{}
	opts := s.opts
	opts.Listeners = []core.Listener{c}
	explore.Explore(opts, s.body)
	return c.switches, c.runs
}
