package campaign

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mtbench/internal/report"
)

// testConfig is a small matrix that still exercises every finder:
// two buggy programs, one correct program, tight budget.
func testConfig() Config {
	return Config{
		Programs: []string{"account", "lockedcounter", "semleak"},
		Seeds:    []int64{0},
		Budget:   60,
		Workers:  2,
	}
}

// runToFile executes cfg into path and returns the summary.
func runToFile(t *testing.T, cfg Config, path string) *Summary {
	t.Helper()
	store, err := Create(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sum, err := Run(context.Background(), cfg, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestCampaignDeterministic pins the acceptance criterion: two runs of
// the same fixed-seed config produce byte-identical JSONL stores.
func TestCampaignDeterministic(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")

	sumA := runToFile(t, cfg, a)
	sumB := runToFile(t, cfg, b)

	want := 3 * len(DefaultFinders) // 3 programs x every default finder
	if sumA.Cells != want || sumA.Executed != want {
		t.Fatalf("expected %d executed cells, got %+v", want, sumA)
	}
	bugs := 0
	for _, r := range sumA.Records {
		bugs += len(r.Bugs)
	}
	if bugs == 0 {
		t.Fatal("campaign found no bugs at all; matrix is not exercising the finders")
	}
	if !reflect.DeepEqual(sumA.Records, sumB.Records) {
		t.Fatal("two runs of the same config produced different records")
	}

	fa, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa, fb) {
		t.Fatalf("stores are not byte-identical:\n--- a ---\n%s\n--- b ---\n%s", fa, fb)
	}
}

// TestCampaignResume pins the other half of the criterion: interrupt
// after K cells, resume, no cell re-runs, and the final store is
// byte-identical to an uninterrupted run.
func TestCampaignResume(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()

	full := filepath.Join(dir, "full.jsonl")
	runToFile(t, cfg, full)

	// Phase 1: interrupt after 3 completed cells.
	path := filepath.Join(dir, "resumed.jsonl")
	store, err := Create(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	phase1 := map[string]bool{}
	sum1, err := Run(ctx, cfg, store, func(done, total int, rec Record) {
		phase1[rec.Key()] = true
		if done == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: want context.Canceled, got %v", err)
	}
	if sum1.Executed < 3 || sum1.Executed >= sum1.Cells {
		t.Fatalf("interrupt did not leave a partial campaign: executed %d of %d", sum1.Executed, sum1.Cells)
	}
	store.Close()

	// Phase 2: reopen and resume under the pinned config.
	store, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg2 := store.Config()
	cfg2.Workers = 2
	phase2 := map[string]bool{}
	sum2, err := Run(context.Background(), cfg2, store, func(done, total int, rec Record) {
		if phase1[rec.Key()] {
			t.Errorf("cell %s re-ran after resume", rec.Key())
		}
		phase2[rec.Key()] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Skipped != sum1.Executed {
		t.Fatalf("resume skipped %d cells, want %d (the interrupted run's completions)", sum2.Skipped, sum1.Executed)
	}
	if sum2.Executed+sum2.Skipped != sum2.Cells {
		t.Fatalf("resume did not complete the matrix: %d executed + %d skipped != %d cells",
			sum2.Executed, sum2.Skipped, sum2.Cells)
	}

	fullBytes, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	resumedBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullBytes, resumedBytes) {
		t.Fatal("interrupted-then-resumed store differs from an uninterrupted run")
	}
}

// TestResumeStoreWithRetiredCheckpoints pins that retiring the
// explore-por checkpoint budget strands no store: a journal whose meta
// line still pins "checkpoints":4 — as stores written while the knob
// existed do — opens, resumes under a Config that has no such field,
// and compacts byte-identical to a fresh run, because the knob never
// changed a result.
func TestResumeStoreWithRetiredCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	full := filepath.Join(dir, "full.jsonl")
	runToFile(t, cfg, full)
	fullBytes, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// The old store: its meta line carries the retired key, and it
	// holds the first three of the full run's records.
	lines := strings.SplitAfter(string(fullBytes), "\n")
	meta := strings.Replace(lines[0], `"budget":60,`, `"budget":60,"checkpoints":4,`, 1)
	if meta == lines[0] {
		t.Fatalf("meta line has no budget field to anchor on: %s", lines[0])
	}
	path := filepath.Join(dir, "old.jsonl")
	if err := os.WriteFile(path, []byte(meta+strings.Join(lines[1:4], "")), 0o644); err != nil {
		t.Fatal(err)
	}

	store, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sum, err := Run(context.Background(), cfg, store, nil)
	if err != nil {
		t.Fatalf("resume of a store pinning the retired checkpoints key: %v", err)
	}
	if sum.Skipped != 3 {
		t.Fatalf("resume skipped %d cells, want the store's 3", sum.Skipped)
	}
	resumed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, fullBytes) {
		t.Fatal("resumed old store differs from an uninterrupted run")
	}
}

// TestCampaignParallelMatchesSerial pins that campaign-level
// parallelism never changes cell results.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	serial := testConfig()
	serial.Workers = 1
	parallel := testConfig()
	parallel.Workers = 4

	sumS, err := Run(context.Background(), serial, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sumP, err := Run(context.Background(), parallel, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sumS.Records, sumP.Records) {
		t.Fatal("Workers=4 produced different records than Workers=1")
	}
}

func TestConfigFingerprint(t *testing.T) {
	a := Config{Programs: []string{"account", "semleak"}, Finders: []string{"fuzz", "noise"}, Seeds: []int64{2, 1}}
	b := Config{Programs: []string{"semleak", "account"}, Finders: []string{"noise", "fuzz"}, Seeds: []int64{1, 2},
		Workers: 8, Timing: true}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on declaration order or execution details")
	}
	c := a
	c.Budget = 77
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint ignores the budget")
	}
}

func TestRunRejectsUnknownMatrix(t *testing.T) {
	cfg := testConfig()
	cfg.Programs = []string{"nosuchprogram"}
	if _, err := Run(context.Background(), cfg, nil, nil); err == nil {
		t.Fatal("unknown program accepted")
	}
	cfg = testConfig()
	cfg.Finders = []string{"nosuchfinder"}
	if _, err := Run(context.Background(), cfg, nil, nil); err == nil {
		t.Fatal("unknown finder accepted")
	}
}

func TestRunRejectsConfigMismatch(t *testing.T) {
	store := NewMemStore(testConfig())
	other := testConfig()
	other.Budget = 999
	if _, err := Run(context.Background(), other, store, nil); err == nil {
		t.Fatal("config mismatch with the store's pinned config accepted")
	}
}

// rec is a Record literal helper for compare tests.
func rec(prog, finder string, seed int64, budget int, bugs []string, first int) Record {
	if bugs == nil {
		bugs = []string{}
	}
	return Record{Program: prog, Finder: finder, Seed: seed, Budget: budget,
		Runs: budget, Bugs: bugs, FirstBug: first}
}

func kinds(deltas []Delta) []DeltaKind {
	out := make([]DeltaKind, len(deltas))
	for i, d := range deltas {
		out[i] = d.Kind
	}
	return out
}

func TestCompareClassification(t *testing.T) {
	baseline := []Record{
		rec("account", "fuzz", 0, 100, []string{"fail:x"}, 10),
		rec("account", "noise", 0, 100, []string{"fail:x", "fail:y"}, 5),
		rec("semleak", "fuzz", 0, 100, nil, -1),
		rec("statmax", "fuzz", 0, 100, []string{"fail:z"}, 3),
	}
	current := []Record{
		rec("account", "fuzz", 0, 100, []string{"fail:x"}, 25),     // later first bug
		rec("account", "noise", 0, 100, []string{"fail:x"}, 5),     // lost fail:y
		rec("semleak", "fuzz", 0, 100, []string{"deadlock:d"}, 40), // gained
		// statmax cell missing
		rec("extra", "race", 0, 100, nil, -1), // added
	}

	diff := Compare(baseline, current, 2.0)
	want := map[DeltaKind]int{
		DeltaBudgetRegression: 1, // 25 > ceil(10*2.0)=20
		DeltaBugLost:          1,
		DeltaBugGained:        1,
		DeltaCellMissing:      1,
		DeltaCellAdded:        1,
	}
	got := map[DeltaKind]int{}
	for _, k := range kinds(diff.Deltas) {
		got[k]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta kinds = %v, want %v", got, want)
	}
	if n := len(diff.Regressions()); n != 3 {
		t.Fatalf("regressions = %d, want 3 (bug-lost + budget-regression + cell-missing)", n)
	}
	if err := diff.Gate(); err == nil {
		t.Fatal("gate passed a diff with regressions")
	}

	// Wider slack absorbs the budget regression; the losses remain.
	diff = Compare(baseline, current, 3.0)
	if got := kinds(diff.Regressions()); len(got) != 2 {
		t.Fatalf("slack 3.0 regressions = %v, want bug-lost + cell-missing", got)
	}

	// Improvements only: earlier first bug gates clean.
	diff = Compare(
		[]Record{rec("account", "fuzz", 0, 100, []string{"fail:x"}, 50)},
		[]Record{rec("account", "fuzz", 0, 100, []string{"fail:x"}, 2)}, 1.0)
	if err := diff.Gate(); err != nil {
		t.Fatalf("gate failed an improvement-only diff: %v", err)
	}
	if got := kinds(diff.Deltas); !reflect.DeepEqual(got, []DeltaKind{DeltaBudgetImprovement}) {
		t.Fatalf("deltas = %v, want [budget-improvement]", got)
	}

	// Identical stores: no deltas at all.
	diff = Compare(baseline, baseline, 1.0)
	if len(diff.Deltas) != 0 || diff.Gate() != nil {
		t.Fatalf("self-compare produced deltas: %v", diff.Deltas)
	}
}

// TestCampaignTablesRoundTrip pins that campaign tables survive the
// report JSON and CSV serializations intact — the contract CI artifact
// collectors rely on.
func TestCampaignTablesRoundTrip(t *testing.T) {
	baseline := []Record{
		rec("account", "fuzz", 0, 100, []string{"fail:x"}, 10),
		rec("semleak", "noise", 0, 100, nil, -1),
	}
	current := []Record{
		rec("account", "fuzz", 0, 100, nil, -1),
		rec("semleak", "noise", 0, 100, []string{"deadlock:d, with comma"}, 7),
	}
	cfg := Config{}.normalized()
	tables := append(SummaryTables(cfg, baseline), Compare(baseline, current, 1.0).Tables()...)

	// JSON round trip.
	var buf bytes.Buffer
	if err := report.JSONAll(&buf, tables); err != nil {
		t.Fatal(err)
	}
	var back []struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes"`
	}
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tables) {
		t.Fatalf("JSON round trip returned %d tables, want %d", len(back), len(tables))
	}
	for i, tb := range tables {
		got := back[i]
		wantRows := tb.Rows
		if wantRows == nil {
			wantRows = [][]string{}
		}
		if got.ID != tb.ID || got.Title != tb.Title ||
			!reflect.DeepEqual(got.Columns, tb.Columns) ||
			!reflect.DeepEqual(got.Rows, wantRows) ||
			!reflect.DeepEqual(got.Notes, tb.Notes) {
			t.Fatalf("JSON round trip mutated table %s:\ngot  %+v\nwant %+v", tb.ID, got, tb)
		}
	}

	// CSV round trip (header + rows; CSV carries no id/title/notes).
	for _, tb := range tables {
		var cbuf bytes.Buffer
		if err := tb.CSV(&cbuf); err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(strings.NewReader(cbuf.String())).ReadAll()
		if err != nil {
			t.Fatalf("table %s CSV does not re-parse: %v", tb.ID, err)
		}
		want := append([][]string{tb.Columns}, tb.Rows...)
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("CSV round trip mutated table %s:\ngot  %v\nwant %v", tb.ID, rows, want)
		}
	}
}

// failedRec is rec with an abnormal Outcome (timeout/panic/quarantine).
func failedRec(prog, finder string, outcome string) Record {
	r := rec(prog, finder, 0, 100, nil, -1)
	r.Runs = 0
	r.Outcome = outcome
	return r
}

func TestCompareOutcomeClassification(t *testing.T) {
	baseline := []Record{
		rec("account", "fuzz", 0, 100, []string{"fail:x"}, 10),
		failedRec("semleak", "noise", "timeout: cell exceeded 1s wall clock"),
		failedRec("statmax", "fuzz", "panic: boom"),
	}
	current := []Record{
		failedRec("account", "fuzz", "quarantined: 3 failed lease attempts"), // was healthy
		rec("semleak", "noise", 0, 100, []string{"deadlock:d"}, 4),           // recovered
		failedRec("statmax", "fuzz", "panic: boom"),                          // same failure
	}

	diff := Compare(baseline, current, 1.0)
	got := map[DeltaKind]int{}
	for _, k := range kinds(diff.Deltas) {
		got[k]++
	}
	// The failed cell contributes cell-failed only (no bug-lost spam on
	// top); the recovered cell contributes cell-recovered plus its
	// gained bug; the identically-failed cell contributes nothing.
	want := map[DeltaKind]int{
		DeltaCellFailed:    1,
		DeltaCellRecovered: 1,
		DeltaBugGained:     1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta kinds = %v, want %v", got, want)
	}
	if err := diff.Gate(); err == nil {
		t.Fatal("gate passed a diff with a newly failed cell")
	}

	// Recovery alone gates clean.
	diff = Compare(
		[]Record{failedRec("account", "fuzz", "timeout: cell exceeded 1s wall clock")},
		[]Record{rec("account", "fuzz", 0, 100, nil, -1)}, 1.0)
	if err := diff.Gate(); err != nil {
		t.Fatalf("gate failed a recovery-only diff: %v", err)
	}
}

// TestFinderCounters: every explore finder reports "exhausted", the
// variable- and thread-bounded ones also "bound_pruned", the reduced
// one "pruned" and "cache_hits"; the run-loop finders (noise, race)
// report "detected" and "steps"; fuzz and pct report nothing, so their
// records serialize without the field. Compare ignores counters.
func TestFinderCounters(t *testing.T) {
	cfg := Config{Programs: []string{"statmax"}, Budget: DefaultBudget}
	// statmax{reporters=2}: the full DFS needs 515 schedules, every
	// bounded or reduced tree fits the budget (E13's statmax rows).
	want := map[string]map[string]int64{
		"explore":     {"exhausted": 0},
		"explore-pb":  {"exhausted": 1},
		"explore-por": {"exhausted": 1, "pruned": 0, "cache_hits": 40},
		"explore-tb":  {"exhausted": 1, "bound_pruned": 85},
		"explore-vb":  {"exhausted": 1, "bound_pruned": 24},
		"fuzz":        nil,
		"noise":       {"detected": 49, "steps": 5111},
		"pct":         nil,
		"race":        {"detected": 70, "steps": 5138},
	}
	for finder, counters := range want {
		rec, err := ExecCell(context.Background(), cfg, Cell{Program: "statmax", Finder: finder, Budget: cfg.Budget})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec.Counters, counters) {
			t.Errorf("%s: counters = %v, want %v", finder, rec.Counters, counters)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if has := bytes.Contains(line, []byte(`"counters"`)); has != (counters != nil) {
			t.Errorf("%s: record %s, counters field present = %v", finder, line, has)
		}
		bare := rec
		bare.Counters = nil
		if d := Compare([]Record{bare}, []Record{rec}, 1.0); len(d.Deltas) != 0 {
			t.Errorf("%s: Compare sees counters: %v", finder, d.Deltas)
		}
	}
}

// TestEveryFinderRuns: every registered finder completes a small cell
// on account at its explorable size with a well-formed, repeatable
// record.
func TestEveryFinderRuns(t *testing.T) {
	cfg := Config{Programs: []string{"account"}, Budget: 20}
	for _, finder := range Finders() {
		cell := Cell{Program: "account", Finder: finder, Budget: cfg.Budget}
		rec, err := ExecCell(context.Background(), cfg, cell)
		if err != nil {
			t.Fatalf("%s: %v", finder, err)
		}
		if rec.Failed() {
			t.Errorf("%s: outcome %q", finder, rec.Outcome)
		}
		if rec.Runs > rec.Budget {
			t.Errorf("%s: %d runs over a budget of %d", finder, rec.Runs, rec.Budget)
		}
		if rec.FirstBug != -1 && (rec.FirstBug < 1 || rec.FirstBug > rec.Runs) {
			t.Errorf("%s: first bug %d outside [1, %d]", finder, rec.FirstBug, rec.Runs)
		}
		for i := 1; i < len(rec.Bugs); i++ {
			if rec.Bugs[i-1] >= rec.Bugs[i] {
				t.Errorf("%s: bugs not sorted and distinct: %q", finder, rec.Bugs)
				break
			}
		}
		if FinderDoc(finder) == "" {
			t.Errorf("%s: no doc", finder)
		}
		again, err := ExecCell(context.Background(), cfg, cell)
		if err != nil {
			t.Fatalf("%s: %v", finder, err)
		}
		if !reflect.DeepEqual(rec, again) {
			t.Errorf("%s: two runs of one cell differ:\n%v\n%v", finder, rec, again)
		}
	}
}
