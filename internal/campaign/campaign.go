// Package campaign turns the repository's ad-hoc experiments into the
// paper's actual deliverable: a benchmark others can run, extend and
// regress against. A campaign is a declarative matrix of finders
// (noise and the other noise makers / explore and its bounded or
// reduced variants / random / fuzz / pct / race) × repository programs
// × seeds × budgets. A parallel worker pool executes the matrix cell by
// cell (each cell runs its finder serially, so a fixed-seed campaign is
// fully deterministic) and streams every completed cell as a JSONL
// record into a persistent Store. The prepared experiments E1, E5, E11,
// E12 and E13 are campaigns too (internal/experiment).
//
// The store is the campaign's first-class bookkeeping, after the
// CK-framework lesson that large experimental comparisons need stored
// per-cell results, reproducible configs and incremental re-runs:
//
//   - resumable: re-invoking Run over an existing store skips
//     completed cells and executes only the remainder, so an
//     interrupted campaign finishes instead of restarting;
//   - reproducible: the store's first line pins the campaign config,
//     and a completed store is compacted to canonical order, so two
//     runs of the same fixed-seed config produce byte-identical files;
//   - diffable: Compare classifies per-cell deltas between two stores
//     (bug lost / bug gained / budget regression / cell missing) and
//     renders them through the shared report tables, and Diff.Gate
//     turns effectiveness regressions into a non-zero exit for CI.
//
// Effectiveness comparisons only mean something under explicit shared
// budgets (Bindal, Bansal and Lal), so the budget is part of every
// cell's identity: a cell is (program, finder, seed, budget), and every
// finder spends at most Budget runs/schedules.
package campaign

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"mtbench/internal/repository"
)

// Config declares a campaign matrix. The identity fields (everything
// serialized to JSON) are pinned into the store's meta line; Workers
// and Timing are execution details that change neither the matrix nor
// its results.
type Config struct {
	// Finders names the tools to compare (see Finders for the
	// registry). Empty = DefaultFinders.
	Finders []string `json:"finders"`
	// Programs names the repository programs. Empty = DefaultPrograms.
	Programs []string `json:"programs"`
	// Seeds are the master seeds; every (program, finder) pair runs
	// once per seed. Empty = {0}.
	Seeds []int64 `json:"seeds"`
	// Budget is the shared per-cell effort: the maximum number of
	// runs (noise, fuzz, race) or schedules (explore) a finder may
	// spend. 0 = DefaultBudget.
	Budget int `json:"budget"`
	// MaxSteps bounds each individual run (0 = DefaultMaxSteps).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// VariableBound and ThreadBound override the bounds the explore-vb
	// and explore-tb finders search under (0 = the finder defaults,
	// DefaultVariableBound / DefaultThreadBound). Zero values are
	// omitted from the fingerprint, so pre-bounding stores resume
	// unchanged.
	VariableBound int `json:"variable_bound,omitempty"`
	ThreadBound   int `json:"thread_bound,omitempty"`
	// PCTDepth overrides the pct finder's targeted bug depth d
	// (0 = pct.DefaultDepth); zero is likewise fingerprint-invisible.
	PCTDepth int `json:"pct_depth,omitempty"`
	// CellTimeout bounds one cell's wall-clock execution (0 = none).
	// A cell that exceeds it is recorded with a "timeout:" Outcome
	// instead of blocking its pool worker forever, so a hung finder
	// costs one record, not the campaign. It is an identity field (a
	// timed-out cell reports different results than an unbounded one)
	// but zero is omitted, so pre-timeout stores resume unchanged.
	// Wall-clock bounds are inherently nondeterministic: fixed-seed
	// byte-identity only holds for campaigns no cell of which times
	// out.
	CellTimeout time.Duration `json:"cell_timeout_ns,omitempty"`
	// Params overrides program parameters by program name, so large
	// programs face the same shrunk instances for every finder.
	// nil = every registered program's Explorable size; an explicitly
	// empty map means "no overrides, full-size programs" and
	// round-trips through the store's meta line as {} (hence no
	// omitempty: collapsing it to nil on reload would silently resume
	// with the explorable sizes).
	Params map[string]map[string]int `json:"params"`

	// Workers sizes the cell worker pool (0 = 1). Cells are
	// independent, so campaign-level parallelism never changes any
	// cell's result, only wall time.
	Workers int `json:"-"`
	// Timing records real wall time per cell. It is off by default
	// because wall time is the one nondeterministic field: fixed-seed
	// stores are byte-identical only with Timing off (wall_ms = 0).
	Timing bool `json:"-"`
}

// Campaign-wide defaults.
const (
	DefaultBudget   = 400
	DefaultMaxSteps = 200_000
)

// DefaultPrograms is the gate matrix's program axis: the exploration
// classics (at their repository.Program.Explorable size, like every
// experiment), the scenario-diversity programs the stock tools were not
// tuned on, and a correct program as false-alarm bait for the race
// finder.
var DefaultPrograms = []string{
	"abastack", "account", "bankwithdraw", "lockedcounter",
	"philosophers", "semleak", "statmax",
}

// DefaultFinders is the gate matrix's finder axis. It is a fixed list,
// not "whatever is registered", so registering a finder never changes
// the default matrix or its fingerprint.
var DefaultFinders = []string{
	"explore", "explore-por", "explore-tb", "explore-vb",
	"fuzz", "noise", "pct", "race",
}

// Default returns the standard fixed-seed gate campaign — the config
// campaign/baseline.jsonl is generated from.
func Default() Config {
	return Config{}.normalized()
}

// normalized fills defaults and canonicalizes order, so configs that
// declare the same matrix have the same fingerprint.
func (c Config) normalized() Config {
	if len(c.Finders) == 0 {
		c.Finders = slices.Clone(DefaultFinders)
	}
	if len(c.Programs) == 0 {
		c.Programs = slices.Clone(DefaultPrograms)
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{0}
	}
	if c.Budget <= 0 {
		c.Budget = DefaultBudget
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = DefaultMaxSteps
	}
	if c.Params == nil {
		c.Params = explorableParams()
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	c.Finders = sortedUnique(c.Finders)
	c.Programs = sortedUnique(c.Programs)
	seeds := slices.Clone(c.Seeds)
	slices.Sort(seeds)
	c.Seeds = slices.Compact(seeds)
	return c
}

// explorableParams is the default Params: every registered program
// that declares an explorable size, at that size.
func explorableParams() map[string]map[string]int {
	out := map[string]map[string]int{}
	for _, p := range repository.All() {
		if p.Explorable != nil {
			out[p.Name] = maps.Clone(map[string]int(p.Explorable))
		}
	}
	return out
}

func sortedUnique(in []string) []string {
	out := slices.Clone(in)
	slices.Sort(out)
	return slices.Compact(out)
}

// Fingerprint is the canonical serialization of the config's identity
// fields (encoding/json sorts map keys, so it is deterministic). A
// store refuses to resume under a config whose fingerprint differs
// from its meta line.
func (c Config) Fingerprint() string {
	b, err := json.Marshal(c.normalized())
	if err != nil {
		panic(fmt.Sprintf("campaign: config not serializable: %v", err))
	}
	return string(b)
}

// Cell identifies one matrix entry. The JSON tags are the campaign
// service's wire form (internal/campsvc leases serialize cells).
type Cell struct {
	Program string `json:"program"`
	Finder  string `json:"finder"`
	Seed    int64  `json:"seed"`
	Budget  int    `json:"budget"`
}

// Key is the cell's unique identity within a store.
func (c Cell) Key() string {
	return c.Program + "|" + c.Finder + "|" + strconv.FormatInt(c.Seed, 10) + "|" + strconv.Itoa(c.Budget)
}

// Cells expands the config into its matrix in canonical order
// (program, then finder, then seed) — the order records are stored in
// after compaction.
func Cells(cfg Config) []Cell {
	cfg = cfg.normalized()
	var out []Cell
	for _, prog := range cfg.Programs {
		for _, finder := range cfg.Finders {
			for _, seed := range cfg.Seeds {
				out = append(out, Cell{Program: prog, Finder: finder, Seed: seed, Budget: cfg.Budget})
			}
		}
	}
	return out
}

// Record is one completed cell, the unit the store persists. Field
// order is fixed by this struct, so serialization is deterministic.
type Record struct {
	Program string `json:"program"`
	Finder  string `json:"finder"`
	Seed    int64  `json:"seed"`
	Budget  int    `json:"budget"`
	// Runs is the number of executions the finder actually spent
	// (≤ Budget; explore stops early when the tree is exhausted).
	Runs int `json:"runs"`
	// Bugs are the distinct bugs found, as sorted core.BugSignature
	// strings (plus "race:<var>" warning signatures for the race
	// finder). Never nil, so empty cells serialize as [].
	Bugs []string `json:"bugs"`
	// FirstBug is the 1-based index of the first bug-exposing run, or
	// -1 when the cell found nothing — the per-cell budget envelope
	// the gate checks regressions against.
	FirstBug int `json:"first_bug"`
	// WallMS is the cell's wall time in milliseconds, to the
	// microsecond; 0 unless the campaign ran with Config.Timing (see
	// there for why).
	WallMS float64 `json:"wall_ms"`
	// Counters are the finder's named engine counters (see
	// CellResult.Counters); omitted when the finder reports none.
	// Compare and the gate ignore them.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Outcome classifies abnormal cell completions; empty for a
	// normally-executed cell, and omitted from the serialized record,
	// so pre-existing stores and fixed-seed byte-identity are
	// untouched. The classified forms:
	//
	//   "timeout: ..."     the cell exceeded Config.CellTimeout;
	//   "panic: ..."       the finder panicked mid-cell (the message
	//                      carries the recovered value and stack);
	//   "quarantined: ..." the distributed coordinator (internal/
	//                      campsvc) gave up on a poison cell after
	//                      MaxAttempts failed leases.
	//
	// Abnormal records carry Runs 0 (timeout/quarantine) and FirstBug
	// -1; Compare classifies an Outcome change as cell-failed /
	// cell-recovered.
	Outcome string `json:"outcome,omitempty"`
}

// Failed reports whether the record carries an abnormal outcome
// (timeout, panic or quarantine) instead of real finder results.
func (r Record) Failed() bool { return r.Outcome != "" }

// Cell returns the record's matrix identity.
func (r Record) Cell() Cell {
	return Cell{Program: r.Program, Finder: r.Finder, Seed: r.Seed, Budget: r.Budget}
}

// Key is the record's cell key.
func (r Record) Key() string { return r.Cell().Key() }

// String summarizes the record in one line.
func (r Record) String() string {
	return fmt.Sprintf("%s/%s seed=%d budget=%d runs=%d bugs=%d first=%d",
		r.Program, r.Finder, r.Seed, r.Budget, r.Runs, len(r.Bugs), r.FirstBug)
}

// sortRecords orders records canonically (program, finder, seed,
// budget), matching Cells order.
func sortRecords(recs []Record) {
	slices.SortFunc(recs, func(a, b Record) int {
		if c := strings.Compare(a.Program, b.Program); c != 0 {
			return c
		}
		if c := strings.Compare(a.Finder, b.Finder); c != 0 {
			return c
		}
		if a.Seed != b.Seed {
			if a.Seed < b.Seed {
				return -1
			}
			return 1
		}
		return a.Budget - b.Budget
	})
}
