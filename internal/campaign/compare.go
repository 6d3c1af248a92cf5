// The diff layer: what makes a stored campaign more than a log file.
// Compare classifies per-cell deltas between a baseline store and a
// current store, Diff renders them through the shared report tables,
// and Gate turns effectiveness regressions into an error CI can fail
// a build on — the benchmark's answer to "did this change make the
// finders worse".
package campaign

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mtbench/internal/report"
)

// DeltaKind classifies one per-cell difference.
type DeltaKind string

// Delta kinds. Regression kinds fail the gate; the others are
// informational.
const (
	// DeltaBugLost: a bug the baseline found in this cell is gone.
	DeltaBugLost DeltaKind = "bug-lost"
	// DeltaBugGained: the current run found a bug the baseline missed.
	DeltaBugGained DeltaKind = "bug-gained"
	// DeltaBudgetRegression: the first bug now needs more runs than
	// the baseline's envelope (baseline first_bug × slack) allows.
	DeltaBudgetRegression DeltaKind = "budget-regression"
	// DeltaBudgetImprovement: the first bug arrives earlier than in
	// the baseline.
	DeltaBudgetImprovement DeltaKind = "budget-improvement"
	// DeltaCellMissing: the baseline has a cell the current store
	// lacks (shrunk matrix or interrupted campaign).
	DeltaCellMissing DeltaKind = "cell-missing"
	// DeltaCellAdded: the current store has a cell the baseline
	// lacks (grown matrix); never a regression.
	DeltaCellAdded DeltaKind = "cell-added"
	// DeltaCellFailed: the current cell carries an abnormal Outcome
	// (timeout, panic, quarantine) the baseline does not — its finder
	// results are missing, so the gate fails.
	DeltaCellFailed DeltaKind = "cell-failed"
	// DeltaCellRecovered: the baseline cell was abnormal and the
	// current one executed normally (or failed differently);
	// informational.
	DeltaCellRecovered DeltaKind = "cell-recovered"
)

// Regression reports whether the kind fails the gate.
func (k DeltaKind) Regression() bool {
	switch k {
	case DeltaBugLost, DeltaBudgetRegression, DeltaCellMissing, DeltaCellFailed:
		return true
	}
	return false
}

// Delta is one classified per-cell difference.
type Delta struct {
	Cell   Cell
	Kind   DeltaKind
	Detail string
}

func (d Delta) String() string {
	return fmt.Sprintf("%s/%s seed=%d: %s (%s)", d.Cell.Program, d.Cell.Finder, d.Cell.Seed, d.Kind, d.Detail)
}

// Diff is the classified comparison of two record sets.
type Diff struct {
	// Deltas in canonical cell order, regressions and improvements
	// interleaved as they fall.
	Deltas []Delta
	// Compared counts cells present in both stores; BaselineOnly and
	// CurrentOnly count the asymmetric remainder.
	Compared     int
	BaselineOnly int
	CurrentOnly  int
	// Slack is the budget envelope multiplier the diff was built with.
	Slack float64
}

// Compare classifies the per-cell deltas from baseline to current.
// Slack widens the budget envelope: a current first_bug within
// ceil(baseline first_bug × slack) passes. Slack ≤ 0 means 1.0 — exact
// reproduction, the right envelope for fully deterministic fixed-seed
// campaigns.
func Compare(baseline, current []Record, slack float64) *Diff {
	if slack <= 0 {
		slack = 1.0
	}
	d := &Diff{Slack: slack}

	curByKey := make(map[string]Record, len(current))
	for _, r := range current {
		curByKey[r.Key()] = r
	}
	baseKeys := make(map[string]bool, len(baseline))

	base := append([]Record(nil), baseline...)
	sortRecords(base)
	for _, b := range base {
		baseKeys[b.Key()] = true
		c, ok := curByKey[b.Key()]
		if !ok {
			d.BaselineOnly++
			d.Deltas = append(d.Deltas, Delta{Cell: b.Cell(), Kind: DeltaCellMissing,
				Detail: "cell absent from current store"})
			continue
		}
		d.Compared++
		d.compareCell(b, c)
	}

	cur := append([]Record(nil), current...)
	sortRecords(cur)
	for _, c := range cur {
		if !baseKeys[c.Key()] {
			d.CurrentOnly++
			d.Deltas = append(d.Deltas, Delta{Cell: c.Cell(), Kind: DeltaCellAdded,
				Detail: fmt.Sprintf("new cell, %d bugs", len(c.Bugs))})
		}
	}
	return d
}

// compareCell classifies one shared cell.
func (d *Diff) compareCell(b, c Record) {
	// Abnormal outcomes dominate the finer classifications: a cell
	// that timed out, panicked or was quarantined has no finder
	// results worth diffing bug-by-bug.
	if b.Outcome != c.Outcome {
		switch {
		case c.Failed():
			d.Deltas = append(d.Deltas, Delta{Cell: b.Cell(), Kind: DeltaCellFailed, Detail: c.Outcome})
		default:
			d.Deltas = append(d.Deltas, Delta{Cell: b.Cell(), Kind: DeltaCellRecovered,
				Detail: fmt.Sprintf("baseline outcome was %q", b.Outcome)})
		}
		if c.Failed() {
			return
		}
	} else if b.Failed() {
		// Both failed identically: nothing to diff.
		return
	}
	curBugs := make(map[string]bool, len(c.Bugs))
	for _, sig := range c.Bugs {
		curBugs[sig] = true
	}
	baseBugs := make(map[string]bool, len(b.Bugs))
	for _, sig := range b.Bugs {
		baseBugs[sig] = true
	}
	for _, sig := range b.Bugs {
		if !curBugs[sig] {
			d.Deltas = append(d.Deltas, Delta{Cell: b.Cell(), Kind: DeltaBugLost, Detail: sig})
		}
	}
	for _, sig := range c.Bugs {
		if !baseBugs[sig] {
			d.Deltas = append(d.Deltas, Delta{Cell: b.Cell(), Kind: DeltaBugGained, Detail: sig})
		}
	}

	// Budget envelope, only meaningful when both sides found something
	// (a current side that found nothing is already fully covered by
	// bug-lost deltas).
	if b.FirstBug >= 1 && c.FirstBug >= 1 {
		allowed := int(math.Ceil(float64(b.FirstBug) * d.Slack))
		switch {
		case c.FirstBug > allowed:
			d.Deltas = append(d.Deltas, Delta{Cell: b.Cell(), Kind: DeltaBudgetRegression,
				Detail: fmt.Sprintf("first bug at run %d, baseline %d (envelope %d)", c.FirstBug, b.FirstBug, allowed)})
		case c.FirstBug < b.FirstBug:
			d.Deltas = append(d.Deltas, Delta{Cell: b.Cell(), Kind: DeltaBudgetImprovement,
				Detail: fmt.Sprintf("first bug at run %d, baseline %d", c.FirstBug, b.FirstBug)})
		}
	}
}

// Regressions returns the gate-failing deltas.
func (d *Diff) Regressions() []Delta {
	var out []Delta
	for _, delta := range d.Deltas {
		if delta.Kind.Regression() {
			out = append(out, delta)
		}
	}
	return out
}

// Gate returns nil when no regression was classified, and otherwise an
// error naming every regression — the single check `cmd/campaign
// gate` and the CI campaign-gate job exit non-zero on.
func (d *Diff) Gate() error {
	regs := d.Regressions()
	if len(regs) == 0 {
		return nil
	}
	msg := fmt.Sprintf("%d effectiveness regression(s) against baseline:", len(regs))
	for _, r := range regs {
		msg += "\n  " + r.String()
	}
	return fmt.Errorf("%s", msg)
}

// Tables renders the diff as report tables: CMP, a count per delta
// class, and CMPD, one row per delta.
func (d *Diff) Tables() []*report.Table {
	summary := &report.Table{
		ID:      "CMP",
		Title:   "campaign comparison summary",
		Columns: []string{"class", "count", "regression"},
	}
	summary.Note("compared %d cells (%d baseline-only, %d current-only), budget envelope slack %.2f",
		d.Compared, d.BaselineOnly, d.CurrentOnly, d.Slack)

	counts := map[DeltaKind]int{}
	for _, delta := range d.Deltas {
		counts[delta.Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		kind := DeltaKind(k)
		summary.AddRow(k, strconv.Itoa(counts[kind]), fmt.Sprintf("%v", kind.Regression()))
	}
	if len(counts) == 0 {
		summary.Note("no deltas: current matches baseline exactly")
	}

	detail := &report.Table{
		ID:      "CMPD",
		Title:   "campaign comparison deltas",
		Columns: []string{"program", "finder", "seed", "budget", "class", "detail"},
	}
	for _, delta := range d.Deltas {
		detail.AddRow(delta.Cell.Program, delta.Cell.Finder,
			strconv.FormatInt(delta.Cell.Seed, 10), strconv.Itoa(delta.Cell.Budget),
			string(delta.Kind), delta.Detail)
	}
	return []*report.Table{summary, detail}
}

// SummaryTables renders a record set as report tables: CAM, the
// per-finder aggregate, and CAMD, the full per-cell matrix — the
// "push of a button" report for a stored campaign.
func SummaryTables(cfg Config, recs []Record) []*report.Table {
	cfg = cfg.normalized()

	type agg struct {
		cells, found, bugs, runs int
		firstSum                 int
	}
	byFinder := map[string]*agg{}
	for _, r := range recs {
		a := byFinder[r.Finder]
		if a == nil {
			a = &agg{}
			byFinder[r.Finder] = a
		}
		a.cells++
		a.runs += r.Runs
		a.bugs += len(r.Bugs)
		if r.FirstBug >= 1 {
			a.found++
			a.firstSum += r.FirstBug
		}
	}

	summary := &report.Table{
		ID:      "CAM",
		Title:   "campaign summary per finder",
		Columns: []string{"finder", "cells", "found_cells", "bugs", "mean_first_bug", "runs"},
	}
	summary.Note("budget %d per cell; bugs = distinct signatures summed over cells; mean_first_bug over bug-finding cells", cfg.Budget)
	finders := make([]string, 0, len(byFinder))
	for f := range byFinder {
		finders = append(finders, f)
	}
	sort.Strings(finders)
	for _, f := range finders {
		a := byFinder[f]
		mean := "-"
		if a.found > 0 {
			mean = fmt.Sprintf("%.1f", float64(a.firstSum)/float64(a.found))
		}
		summary.AddRow(f, strconv.Itoa(a.cells), strconv.Itoa(a.found),
			strconv.Itoa(a.bugs), mean, strconv.Itoa(a.runs))
	}

	detail := &report.Table{
		ID:      "CAMD",
		Title:   "campaign cells",
		Columns: []string{"program", "finder", "seed", "budget", "runs", "bugs", "first_bug", "wall_ms", "outcome"},
	}
	for _, r := range recs {
		first := "-"
		if r.FirstBug >= 1 {
			first = strconv.Itoa(r.FirstBug)
		}
		outcome := "ok"
		if r.Failed() {
			// Keep the row scannable: the class alone, not the stack.
			outcome, _, _ = strings.Cut(r.Outcome, ":")
		}
		detail.AddRow(r.Program, r.Finder, strconv.FormatInt(r.Seed, 10), strconv.Itoa(r.Budget),
			strconv.Itoa(r.Runs), strconv.Itoa(len(r.Bugs)), first, strconv.FormatFloat(r.WallMS, 'f', -1, 64), outcome)
	}
	return []*report.Table{summary, detail}
}
