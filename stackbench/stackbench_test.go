package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {8960, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 50: 3, 75: 4, 100: 5, 90: 4.6} {
		if got := percentile(xs, p); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, p, got, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the values the spread check is defined on.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "campaign", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "fuzz", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "fuzz", Start: 40, End: 90},
		{ID: 4, Layer: "sched", Start: 100, End: 105},
	}
	got := selfTimes(spans)
	want := map[string]int64{"campaign": 20, "fuzz": 80, "sched": 5}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("self time of %s = %d, want %d", l, got[l], ns)
		}
	}
}

func TestClassify(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name     string
		old, cur []float64
		better   string
		want     string
	}{
		{"same runs", steady, steady, "lower", unchanged},
		{"slower beyond the bound", steady, scaled(steady, 1.2), "lower", regressed},
		{"slower within the bound", steady, scaled(steady, 1.05), "lower", unchanged},
		{"faster in every pair", steady, scaled(steady, 0.9), "lower", improved},
		{"fewer ops per second beyond the bound", steady, scaled(steady, 0.8), "higher", regressed},
		{"more ops per second in every pair", steady, scaled(steady, 1.1), "higher", improved},
		{"old spread wider than the bound", noisy, scaled(noisy, 1.3), "lower", unresolved},
		{"wide spread but every new run better", noisy, scaled(noisy, 0.3), "lower", improved},
		// Eight of ten pairs won is not nine tenths.
		{"faster in 8 of 10 pairs", steady, []float64{90, 91, 89, 90, 92, 88, 90, 91, 100, 101}, "lower", unchanged},
	} {
		if got := classify(c.old, c.cur, c.better, 0.1); got != c.want {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRunSets(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	line := func(ms float64) string {
		data, _ := json.Marshal(map[string]any{
			"workload": "hunt", "seed": 1, "correct": true, "attempted": 24, "failed": 0,
			"metrics": map[string]any{"round_ms": map[string]any{"value": ms, "unit": "ms"}},
		})
		return string(data)
	}
	old := write("old.jsonl", line(100), line(101), line(99), line(100))
	slow := write("slow.jsonl", line(130), line(131), line(129), line(130))
	var stdout, stderr bytes.Buffer
	regressedAny, err := runCompare("../BENCHMARK.json", old, slow, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	var rep compareReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, stdout.String())
	}
	if !regressedAny || rep.Regressions != 1 || len(rep.Rows) != 1 || rep.Rows[0].Verdict != regressed {
		t.Errorf("30%% slower rounds: regressed=%v report %+v", regressedAny, rep)
	}

	// A pre-schema BENCH_<n>.json report holds no result lines: nothing
	// to compare, which is not a regression.
	preSchema := write("BENCH_7.json", `{
  "go_version": "go1.24.0",
  "benchmarks": [
    {"name": "explore/account/workers=1", "iterations": 10, "ns_per_op": 5000000, "schedules_per_sec": 400000, "allocs_per_op": 9000}
  ]
}`)
	stdout.Reset()
	regressedAny, err = runCompare("../BENCHMARK.json", preSchema, old, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	rep = compareReport{}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if regressedAny || len(rep.Rows) != 0 || rep.Note != "no shared metrics" {
		t.Errorf("pre-schema report: regressed=%v report %+v", regressedAny, rep)
	}
}

// TestCatalogMatchesBenchmarkJSON pins BENCHMARK.json to the code: no
// keys beyond the benchmark contract's, the same workloads with the same
// whys, and the same metrics, units and directions, in the same order.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			metricJSON
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "stackbench" {
		t.Errorf("paths = %v, want [stackbench]", spec.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || len(n) > 64 || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	var e2e []metricJSON
	largest := spec.EndToEnd[0]
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.metricJSON)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > largest.Bound {
			largest = m
		}
	}
	if largest.Name != "setup_s" {
		t.Errorf("setup_s must have the largest bound, %s has", largest.Name)
	}
	for _, group := range []struct {
		what string
		json []metricJSON
		code []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(group.json) != len(group.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", group.what, len(group.json), len(group.code))
			continue
		}
		for i, m := range group.json {
			checkName(m.Name)
			c := group.code[i]
			if m != (metricJSON{c.name, c.unit, c.better}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", group.what, i, m, c)
			}
		}
	}
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope", "-seconds", "0"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

// TestQuickSmoke runs every workload for one round, every check on, and
// one traced run, whose probes must produce the whole layer table.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	quick := runOpts{seed: 1, setups: 1, minRounds: 1, probes: quickProbes}
	for _, w := range workloads {
		res, _, err := measure(w, quick, testLog{t})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted == 0 || len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %+v", w.name, res)
		}
	}
	traced := quick
	traced.trace = true
	res, spans, err := measure(workloads[0], traced, testLog{t})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) || len(spans) == 0 {
		t.Errorf("traced run: correct=%v, %d metrics, %d spans", res.Correct, len(res.Metrics), len(spans))
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}
