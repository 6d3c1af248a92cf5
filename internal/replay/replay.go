// Package replay implements record/playback (§2.2). Two flavors, with
// exactly the trade-off the paper describes:
//
//   - Controlled replay is exact: the controlled scheduler's decision
//     sequence is the complete source of nondeterminism, so replaying
//     it reproduces the run event-for-event. This is the "partial
//     replay ... as if the scheduler is deterministic" of Edelstein et
//     al., made total by the controlled substrate.
//
//   - Native replay is probabilistic: a recorded event order is
//     enforced over the live Go scheduler by gating instrumented
//     operations. Timing the program can't see (I/O, runtime pauses,
//     un-instrumented nondeterminism) can make the schedule
//     infeasible; the enforcer then declares divergence and lets the
//     run continue free. Experiment E3 measures the success
//     probability and record-phase overhead.
package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"mtbench/internal/core"
	"mtbench/internal/native"
	"mtbench/internal/sched"
)

// Point is one recorded scheduling-relevant operation in native mode.
type Point struct {
	Thread core.ThreadID `json:"t"`
	Op     string        `json:"op"`
	Name   string        `json:"name,omitempty"`
}

// Schedule is a saved scenario: everything needed to reproduce a run
// (§2.2: "whenever an error is detected ... a scenario leading to the
// error state is saved").
type Schedule struct {
	Version  int    `json:"version"`
	Program  string `json:"program"`
	Mode     string `json:"mode"` // "controlled" or "native"
	Seed     int64  `json:"seed"`
	Strategy string `json:"strategy,omitempty"`
	// Decisions is the controlled scheduler's per-step thread choice.
	Decisions []core.ThreadID `json:"decisions,omitempty"`
	// Order is the native event order to enforce.
	Order []Point `json:"order,omitempty"`
}

// Save writes the schedule as JSON.
func (s *Schedule) Save(w io.Writer) error {
	s.Version = 1
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// Load reads a schedule saved by Save. Only whitespace may follow the
// schedule's JSON value: anything else means a corrupt or concatenated
// file, and is refused with the offset where the schedule ended.
func Load(r io.Reader) (*Schedule, error) {
	var s Schedule
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("replay: trailing data after the schedule, which ends at byte %d", end)
	}
	if s.Version != 1 {
		return nil, fmt.Errorf("replay: schedule version %d unsupported", s.Version)
	}
	return &s, nil
}

// SaveFile writes the schedule to a scenario file (the CLI tools'
// shared save path).
func (s *Schedule) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a scenario file written by SaveFile.
func LoadFile(path string) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// RecordControlled runs body under cfg with schedule recording on and
// returns the result together with the replayable schedule.
func RecordControlled(cfg sched.Config, body func(core.T)) (*core.Result, *Schedule) {
	cfg.RecordSchedule = true
	res := sched.Run(cfg, body)
	name := ""
	if cfg.Strategy != nil {
		name = cfg.Strategy.Name()
	}
	return res, &Schedule{
		Program:   cfg.Name,
		Mode:      "controlled",
		Seed:      cfg.Seed,
		Strategy:  name,
		Decisions: res.Schedule,
	}
}

// ReplayControlled re-executes body following the recorded decisions
// exactly. The result's Diverged flag (VerdictDiverged) reports a
// schedule that could not be followed, which for a deterministic
// program indicates the program or framework changed since recording.
func ReplayControlled(s *Schedule, cfg sched.Config, body func(core.T)) *core.Result {
	cfg.Strategy = &sched.FixedSchedule{Decisions: s.Decisions}
	cfg.RecordSchedule = false
	return sched.Run(cfg, body)
}

// Recorder is a listener that captures the native event order for
// later enforcement. Attach it to a native run, then pass
// Recorder.Schedule to NewEnforcer.
type Recorder struct {
	// SyncOnly restricts recording to synchronization and lifecycle
	// operations — the cheap, ConTest-style partial record. With it
	// off, variable accesses are enforced too (higher fidelity, higher
	// overhead).
	SyncOnly bool
	points   []Point
}

// NewRecorder returns a Recorder; syncOnly selects the partial-record
// variant.
func NewRecorder(syncOnly bool) *Recorder {
	return &Recorder{SyncOnly: syncOnly}
}

// OnEvent implements core.Listener. The native runtime serializes
// emission, so no locking is needed.
func (r *Recorder) OnEvent(ev *core.Event) {
	if !r.relevant(ev.Op) {
		return
	}
	r.points = append(r.points, Point{Thread: ev.Thread, Op: ev.Op.String(), Name: ev.Name})
}

func (r *Recorder) relevant(op core.Op) bool {
	if op == core.OpFail || op == core.OpOutcome || op == core.OpEnd {
		return false // emitted outside gating; enforcing them would wedge
	}
	if r.SyncOnly {
		return op.IsSync() || op == core.OpFork || op == core.OpJoin
	}
	return true
}

// Schedule packages the recording.
func (r *Recorder) Schedule(program string, seed int64) *Schedule {
	return &Schedule{Program: program, Mode: "native", Seed: seed, Order: r.points}
}

// Len returns the number of recorded points.
func (r *Recorder) Len() int { return len(r.points) }

// Enforcer implements native.Gate: it blocks each instrumented
// operation until the recorded order says it is that operation's turn.
// If no progress is possible within Timeout the enforcer declares
// divergence and stops enforcing, letting the run complete free-form.
type Enforcer struct {
	Timeout time.Duration // per-wait budget (0 = 1s)

	mu       sync.Mutex
	order    []Point
	ops      map[string]bool // op kinds present in the schedule
	pos      int
	inflight bool
	diverged bool
	advance  chan struct{}
}

// NewEnforcer builds a gate from a recorded native schedule.
func NewEnforcer(s *Schedule) *Enforcer {
	ops := make(map[string]bool)
	for _, p := range s.Order {
		ops[p.Op] = true
	}
	return &Enforcer{order: s.Order, ops: ops, advance: make(chan struct{})}
}

var _ native.Gate = (*Enforcer)(nil)

// matches reports whether the recorded point is the given gate point.
func matches(p Point, g native.GatePoint) bool {
	return p.Thread == g.Thread && p.Name == g.Name && p.Op == g.Op.String()
}

// relevantOp mirrors Recorder.relevant for the enforcing side: op
// kinds the recorder skipped pass through ungated.
func (e *Enforcer) relevantOp(g native.GatePoint) bool {
	return e.ops[g.Op.String()]
}

// Before implements native.Gate.
func (e *Enforcer) Before(g native.GatePoint) error {
	timeout := e.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	deadline := time.Now().Add(timeout)
	for {
		e.mu.Lock()
		if e.diverged || e.pos >= len(e.order) {
			e.mu.Unlock()
			return nil
		}
		if !e.relevantOp(g) {
			e.mu.Unlock()
			return nil
		}
		if !e.inflight && matches(e.order[e.pos], g) {
			e.inflight = true
			e.mu.Unlock()
			return nil
		}
		ch := e.advance
		e.mu.Unlock()

		wait := time.Until(deadline)
		if wait <= 0 {
			e.declareDivergence()
			return ErrDiverged
		}
		timer := time.NewTimer(wait)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			e.declareDivergence()
			return ErrDiverged
		}
	}
}

// After implements native.Gate.
func (e *Enforcer) After(g native.GatePoint) {
	e.mu.Lock()
	if !e.diverged && e.inflight && e.pos < len(e.order) && matches(e.order[e.pos], g) {
		e.pos++
		e.inflight = false
		close(e.advance)
		e.advance = make(chan struct{})
	}
	e.mu.Unlock()
}

// declareDivergence wakes all waiters and disables enforcement.
func (e *Enforcer) declareDivergence() {
	e.mu.Lock()
	if !e.diverged {
		e.diverged = true
		close(e.advance)
		e.advance = make(chan struct{})
	}
	e.mu.Unlock()
}

// Diverged reports whether enforcement was abandoned, and where.
func (e *Enforcer) Diverged() (bool, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.diverged, e.pos
}

// ErrDiverged is returned by Before when the recorded schedule cannot
// be followed.
var ErrDiverged = fmt.Errorf("replay: schedule diverged")
