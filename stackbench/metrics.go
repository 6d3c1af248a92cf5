package main

import (
	"fmt"
	"math"
	"slices"
)

// metricDef names one metric. BENCHMARK.json lists the same names,
// units and directions; TestCatalogMatchesBenchmarkJSON pins the two
// together.
type metricDef struct {
	name, unit, better string
}

// endToEnd are what a user of the framework sees, reported with tracing
// off, times at nominal machine speed (see calibrate). A round is a fixed
// amount of a workload's work (see workload.round), so round_ms is also
// its inverse throughput.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},      // median of the run's set-ups, warm-ups included
	{"round_ms", "ms", "lower"},    // median round time
	{"peak_rss_mb", "MB", "lower"}, // median over rounds of the round's peak RSS
}

// perLayer are the traced run's numbers: the layer table the probes
// measure through each module's public functions, and what tracing
// costs the invoked workload.
var perLayer = []metricDef{
	{"sched.run_ns", "ns", "lower"},
	{"sched.continue_ns", "ns", "lower"},
	{"sched.switch_ns", "ns", "lower"},
	{"sched.ff_ns", "ns", "lower"},
	{"sched.switches_per_schedule", "count", "lower"},

	{"explore.schedules_w1", "count", "lower"},
	{"explore.schedules_w2", "count", "lower"},
	{"explore.sched_ratio_w2", "ratio", "lower"},
	{"explore.speedup_w2", "ratio", "higher"},
	{"explore.ns_per_schedule", "ns", "lower"},
	{"explore.ns_per_step_plain", "ns", "lower"},
	{"explore.ns_per_step_por", "ns", "lower"},
	{"explore.por_step_ratio", "ratio", "lower"},
	{"explore.replayed_frac", "fraction", "lower"},
	{"explore.state_hits_per_schedule", "count", "higher"},
	{"explore.por_pruned", "count", "higher"},
	{"explore.driver_frac_exhaust", "fraction", "lower"},
	{"explore.driver_frac_plain", "fraction", "lower"},
	{"explore.driver_frac_por", "fraction", "lower"},

	{"fuzz.runs_per_s", "1/s", "higher"},
	{"noise.runs_per_s", "1/s", "higher"},
	{"pct.runs_per_s", "1/s", "higher"},
	{"race.runs_per_s", "1/s", "higher"},
	{"fuzz.first_bug_runs_p50", "count", "lower"},
	{"noise.first_bug_runs_p50", "count", "lower"},
	{"pct.first_bug_runs_p50", "count", "lower"},
	{"race.first_bug_runs_p50", "count", "lower"},

	{"coverage.merge_ns", "ns", "lower"},

	{"campaign.append_us", "us", "lower"},
	{"campaign.append_fsync_us", "us", "lower"},
	{"campaign.compact_ms", "ms", "lower"},
	{"campaign.inproc_cells_per_s", "1/s", "higher"},

	{"campsvc.cells_per_s", "1/s", "higher"},
	{"campsvc.overhead_frac", "fraction", "lower"},
	{"campsvc.lease_rtt_us_p50", "us", "lower"},
	{"campsvc.lease_rtt_us_p99", "us", "lower"},
	{"campsvc.complete_rtt_us_p50", "us", "lower"},
	{"campsvc.complete_rtt_us_p99", "us", "lower"},
	{"campsvc.exec_ms_p50", "ms", "lower"},
	{"campsvc.empty_grants", "count", "lower"},
	{"campsvc.drain_ms", "ms", "lower"},

	{"go.allocs_per_round", "count", "lower"},
	{"go.gc_cpu_frac", "fraction", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// metrics collects measured values by name.
type metrics map[string]float64

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult attaches units to m, which must hold exactly the metrics
// in defs, each a finite number.
func newResult(defs []metricDef, m metrics, attempted, failed int) (*result, error) {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range m {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.name == name }) {
			return nil, fmt.Errorf("metric %s is not in the catalog", name)
		}
	}
	return res, nil
}
