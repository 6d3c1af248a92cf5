package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Verdicts of -compare for one (workload, metric).
const (
	regressed  = "regressed"  // median worse than the bound allows
	unresolved = "unresolved" // the old side's own spread exceeds the bound
	improved   = "improved"   // new wins 9 of 10 pairs by more than the old spread
	unchanged  = "unchanged"
	info       = "info" // a per-layer metric: reported, never judged
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSet holds one side's runs: workload → metric → values in run
// order, and failed ops per workload.
type runSet struct {
	values map[string]map[string][]float64
	failed map[string]int
}

// loadRuns reads the result lines -out appended to path. Any other JSON
// value in the file — such as a whole pre-schema BENCH_<n>.json report —
// holds no result and is skipped.
func loadRuns(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rs := &runSet{values: map[string]map[string][]float64{}, failed: map[string]int{}}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var line struct {
			Workload string `json:"workload"`
			Failed   int    `json:"failed"`
			Metrics  map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		err := dec.Decode(&line)
		if errors.Is(err, io.EOF) {
			return rs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if line.Workload == "" || line.Metrics == nil {
			continue
		}
		if rs.values[line.Workload] == nil {
			rs.values[line.Workload] = map[string][]float64{}
		}
		for name, v := range line.Metrics {
			rs.values[line.Workload][name] = append(rs.values[line.Workload][name], v.Value)
		}
		rs.failed[line.Workload] += line.Failed
	}
}

// classify judges the new runs cur against the old runs for a metric
// where better is "lower" or "higher" and bound is the share of the old
// median by which the new median may be worse.
func classify(old, cur []float64, better string, bound float64) string {
	oldMed, newMed := median(old), median(cur)
	q1, q3 := quartiles(old)
	spread := (q3 - q1) / math.Abs(oldMed)
	worse := (newMed - oldMed) / math.Abs(oldMed)
	if better == "higher" {
		worse = -worse
	}
	if math.IsNaN(spread) || math.IsNaN(worse) {
		return unresolved
	}
	switch {
	case spread > bound && !allBetter(old, cur, better):
		return unresolved
	case worse > bound:
		return regressed
	case winsNineTenths(old, cur, better) && math.Abs(newMed-oldMed) > q3-q1:
		return improved
	}
	return unchanged
}

func isBetter(a, b float64, better string) bool {
	if better == "higher" {
		return a > b
	}
	return a < b
}

// allBetter reports whether every new run reads better than every old
// one.
func allBetter(old, cur []float64, better string) bool {
	if better == "higher" {
		return slices.Min(cur) > slices.Max(old)
	}
	return slices.Max(cur) < slices.Min(old)
}

// winsNineTenths pairs the i-th old run with the i-th new run and
// reports whether new wins at least nine tenths of the pairs; ties count
// for neither side.
func winsNineTenths(old, cur []float64, better string) bool {
	pairs := min(len(old), len(cur))
	wins := 0
	for i := 0; i < pairs; i++ {
		if isBetter(cur[i], old[i], better) {
			wins++
		}
	}
	return pairs > 0 && wins*10 >= pairs*9
}

type sideSummary struct {
	Runs   int     `json:"runs"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) sideSummary {
	q1, q3 := quartiles(xs)
	return sideSummary{Runs: len(xs), Median: median(xs), Q1: q1, Q3: q3}
}

type compareRow struct {
	Workload string      `json:"workload"`
	Metric   string      `json:"metric"`
	Unit     string      `json:"unit"`
	Bound    float64     `json:"bound,omitempty"`
	Old      sideSummary `json:"old"`
	New      sideSummary `json:"new"`
	Verdict  string      `json:"verdict"`
}

type compareReport struct {
	Old         string       `json:"old"`
	New         string       `json:"new"`
	Rows        []compareRow `json:"rows"`
	Regressions int          `json:"regressions"`
	Note        string       `json:"note,omitempty"`
}

// compareRuns classifies every (workload, metric) both sides measured
// and the spec lists, in the spec's order.
func compareRuns(s *benchSpec, oldRuns, newRuns *runSet) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		ov, nv := oldRuns.values[w.name], newRuns.values[w.name]
		for _, d := range s.EndToEnd {
			if len(ov[d.Name]) == 0 || len(nv[d.Name]) == 0 {
				continue
			}
			v := classify(ov[d.Name], nv[d.Name], d.Better, d.Bound)
			if v == improved && newRuns.failed[w.name] > oldRuns.failed[w.name] {
				v = unchanged // a gain does not count when more ops fail
			}
			rows = append(rows, compareRow{w.name, d.Name, d.Unit, d.Bound, summarize(ov[d.Name]), summarize(nv[d.Name]), v})
		}
		for _, d := range s.PerLayer {
			if len(ov[d.Name]) == 0 || len(nv[d.Name]) == 0 {
				continue
			}
			rows = append(rows, compareRow{w.name, d.Name, d.Unit, 0, summarize(ov[d.Name]), summarize(nv[d.Name]), info})
		}
	}
	return rows
}

// runCompare writes the JSON report to stdout and a table to stderr,
// and reports whether any metric regressed.
func runCompare(specPath, oldPath, newPath string, stdout, stderr io.Writer) (bool, error) {
	s, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	oldRuns, err := loadRuns(oldPath)
	if err != nil {
		return false, err
	}
	newRuns, err := loadRuns(newPath)
	if err != nil {
		return false, err
	}
	rep := compareReport{Old: oldPath, New: newPath, Rows: compareRuns(s, oldRuns, newRuns)}
	if len(rep.Rows) == 0 {
		rep.Note = "no shared metrics"
		fmt.Fprintf(stderr, "no shared metrics between %s and %s\n", oldPath, newPath)
	}
	for _, r := range rep.Rows {
		if r.Verdict == regressed {
			rep.Regressions++
		}
		fmt.Fprintf(stderr, "%-13s %-34s %14.6g [%.6g, %.6g] -> %14.6g [%.6g, %.6g] %-7s %s\n",
			r.Workload, r.Metric, r.Old.Median, r.Old.Q1, r.Old.Q3, r.New.Median, r.New.Q1, r.New.Q3, r.Unit, r.Verdict)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return false, err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", data); err != nil {
		return false, err
	}
	return rep.Regressions > 0, nil
}
