package experiment

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"mtbench/internal/campaign"
)

// cell looks up a table cell by row predicate and column name.
func cell(t *testing.T, tbl *Table, match func(row []string) bool, col string) string {
	t.Helper()
	ci := -1
	for i, c := range tbl.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("table %s has no column %q", tbl.ID, col)
	}
	for _, row := range tbl.Rows {
		if match(row) {
			return row[ci]
		}
	}
	t.Fatalf("table %s has no matching row", tbl.ID)
	return ""
}

func atoiCell(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("cell %q not an int", s)
	}
	return n
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Columns: []string{"a", "b"}}
	tbl.AddRow("1", "hello,world")
	tbl.Note("a note")
	var txt, csv bytes.Buffer
	if err := tbl.Render(&txt); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "demo") || !strings.Contains(txt.String(), "note: a note") {
		t.Fatalf("text render:\n%s", txt.String())
	}
	if !strings.Contains(csv.String(), `"hello,world"`) {
		t.Fatalf("csv render:\n%s", csv.String())
	}
}

// TestTableJSON pins the machine-readable serialization external
// campaign tooling depends on: stable field names, rows as arrays,
// empty tables still valid.
func TestTableJSON(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Columns: []string{"a", "b"}}
	tbl.AddRow("1", "two")
	tbl.Note("a note")
	var buf bytes.Buffer
	if err := tbl.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if got.ID != "X" || got.Title != "demo" || len(got.Rows) != 1 || got.Rows[0][1] != "two" || len(got.Notes) != 1 {
		t.Fatalf("round trip mangled the table: %+v", got)
	}

	buf.Reset()
	empty := &Table{ID: "Y", Title: "empty", Columns: []string{"a"}}
	if err := JSONAll(&buf, []*Table{empty, tbl}); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("invalid JSON array: %v\n%s", err, buf.String())
	}
	if len(arr) != 2 {
		t.Fatalf("array length = %d, want 2", len(arr))
	}
	if rows, ok := arr[0]["rows"].([]any); !ok || rows == nil {
		t.Fatalf("empty table serialized rows as %T, want empty array", arr[0]["rows"])
	}
}

// TestFuzzShape pins E11's acceptance property on a fast subset: under
// one shared budget, schedule fuzzing finds every bug noise finds —
// including on the scenario-diversity programs the stock tools were
// not tuned on.
func TestFuzzShape(t *testing.T) {
	programs := []string{"account", "statmax", "semleak", "rwupgrade", "waitholdinglock", "abastack"}
	tables, err := Fuzz(FuzzConfig{Programs: programs, Budget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	get := func(prog, method, col string) string {
		return cell(t, tbl, func(r []string) bool { return r[0] == prog && r[1] == method }, col)
	}
	for _, prog := range programs {
		fuzzBugs := atoiCell(t, get(prog, "fuzz", "bugs"))
		noiseBugs := atoiCell(t, get(prog, "noise", "bugs"))
		if fuzzBugs < noiseBugs {
			t.Errorf("%s: fuzz found %d bugs, noise found %d under the same budget", prog, fuzzBugs, noiseBugs)
		}
		if fuzzBugs == 0 {
			t.Errorf("%s: fuzz found nothing", prog)
		}
		if got := get(prog, "fuzz", "first_bug"); got == "-" {
			t.Errorf("%s: fuzz never hit its first bug", prog)
		}
	}
}

// TestNoiseShape pins E1's qualitative result: on the account program
// the deterministic baseline finds nothing and strong yield noise
// finds the bug often; no noise maker "finds" a bug in the correct
// program.
func TestNoiseShape(t *testing.T) {
	tables, err := Noise(NoiseConfig{Programs: []string{"account", "lockedcounter"}, Budget: 30})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	detected := func(prog, finder string) int {
		return atoiCell(t, cell(t, tbl, func(row []string) bool { return row[0] == prog && row[1] == finder }, "detected"))
	}
	if got := detected("account", "baseline"); got != 0 {
		t.Fatalf("baseline detected %d on account, want 0", got)
	}
	if detected("account", "noise") == 0 {
		t.Fatal("yield noise never found the account bug")
	}
	for _, finder := range noiseFinders {
		if got := detected("lockedcounter", finder); got != 0 {
			t.Fatalf("%s 'found' %d bugs in the correct program", finder, got)
		}
	}
}

// TestRaceShape pins E2: lockset false-alarms on adhocsync, hybrid
// does not, and both find the account race.
func TestRaceShape(t *testing.T) {
	tables, err := Race(RaceConfig{
		Programs: []string{"account", "adhocsync", "lockedcounter"},
		Runs:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	perProg := tables[1]
	row := func(prog string) func([]string) bool {
		return func(r []string) bool { return r[0] == prog }
	}
	if got := cell(t, perProg, row("account"), "lockset"); !strings.Contains(got, "balance") {
		t.Fatalf("lockset missed account race: %q", got)
	}
	if got := cell(t, perProg, row("account"), "hybrid"); !strings.Contains(got, "balance") {
		t.Fatalf("hybrid missed account race: %q", got)
	}
	if got := cell(t, perProg, row("adhocsync"), "lockset"); got == "-" {
		t.Fatal("lockset did not false-alarm on adhocsync")
	}
	if got := cell(t, perProg, row("adhocsync"), "hybrid"); got != "-" {
		t.Fatalf("hybrid false-alarmed on adhocsync: %q", got)
	}
	// lockset is join-blind, so the final unlocked post-join read in
	// lockedcounter is a (documented) false alarm for it; the
	// happens-before side sees the join edge, so hybrid stays silent.
	if got := cell(t, perProg, row("lockedcounter"), "lockset"); !strings.Contains(got, "count") {
		t.Fatalf("expected lockset join-blindness false alarm on lockedcounter, got %q", got)
	}
	if got := cell(t, perProg, row("lockedcounter"), "hybrid"); got != "-" {
		t.Fatalf("hybrid false-alarmed on lockedcounter: %q", got)
	}
}

// TestReplayShape pins E3: controlled replay is exact.
func TestReplayShape(t *testing.T) {
	tables, err := Replay(ReplayConfig{ControlledTrials: 10, NativeRecords: 1, NativeReplays: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	controlled := func(r []string) bool { return r[0] == "controlled" }
	if got := cell(t, tbl, controlled, "rate"); got != "100.0%" {
		t.Fatalf("controlled replay rate = %s, want 100%%", got)
	}
}

// TestCoverageShape pins E4: growth is monotone and the budget table
// spends the whole budget.
func TestCoverageShape(t *testing.T) {
	tables, err := Coverage(CoverageConfig{
		Programs: []string{"account", "boundedbuffer"},
		Runs:     6,
		Budget:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	growth := tables[0]
	for col := 1; col <= 2; col++ {
		prev := -1
		for _, row := range growth.Rows {
			v := atoiCell(t, row[col])
			if v < prev {
				t.Fatalf("coverage regressed in column %d: %d -> %d", col, prev, v)
			}
			prev = v
		}
	}
	budget := tables[2]
	total := 0
	for _, row := range budget.Rows {
		total += atoiCell(t, row[2])
	}
	if total != 10 {
		t.Fatalf("budget allocated %d, want 10", total)
	}
}

// TestExploreShape pins E5 on the smallest program: DFS finds the bug
// and bounded or reduced DFS needs no more schedules than unbounded.
func TestExploreShape(t *testing.T) {
	tables, err := Explore(ExploreConfig{Programs: []string{"statmax"}, Budget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	get := func(method, col string) string {
		return cell(t, tbl, func(r []string) bool { return r[0] == "statmax" && r[1] == method }, col)
	}
	if got := get("explore", "first_bug"); got == "-" {
		t.Fatal("explore missed the statmax bug")
	}
	if got := get("explore-pb1", "first_bug"); got == "-" {
		t.Fatal("explore-pb1 missed the 1-preemption statmax bug")
	}
	b1 := atoiCell(t, get("explore-pb1", "runs"))
	full := atoiCell(t, get("explore", "runs"))
	if b1 > full {
		t.Fatalf("bound-1 used more schedules (%d) than unbounded (%d)", b1, full)
	}
	if got := get("explore-por", "first_bug"); got == "-" {
		t.Fatal("reduced explore missed the statmax bug")
	}
	reduced := atoiCell(t, get("explore-por", "runs"))
	if reduced > full {
		t.Fatalf("reduced search used more schedules (%d) than unbounded (%d)", reduced, full)
	}
	if pruned := atoiCell(t, get("explore-dpor", "pruned")); pruned == 0 {
		t.Fatal("explore-dpor reports zero pruned options")
	}
	if got := get("random", "first_bug"); got == "-" {
		t.Fatal("random search missed the statmax bug")
	}
}

// TestCloningShape pins E6: 1 clone never detects; detection grows.
func TestCloningShape(t *testing.T) {
	tables, err := Cloning(CloningConfig{CloneCounts: []int{1, 8}, Runs: 30})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	one := atoiCell(t, cell(t, tbl, func(r []string) bool { return r[0] == "1" }, "noise_detect"))
	eight := atoiCell(t, cell(t, tbl, func(r []string) bool { return r[0] == "8" }, "noise_detect"))
	if one != 0 {
		t.Fatalf("single clone detected %d times", one)
	}
	if eight == 0 {
		t.Fatal("8 clones never detected the oversell")
	}
}

// TestMultioutShape pins E7: deterministic = 1 outcome, random > 1.
func TestMultioutShape(t *testing.T) {
	tables, err := Multiout(MultioutConfig{Runs: 40})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	det := atoiCell(t, cell(t, tbl, func(r []string) bool { return r[0] == "deterministic" }, "distinct"))
	rnd := atoiCell(t, cell(t, tbl, func(r []string) bool { return r[0] == "random" }, "distinct"))
	if det != 1 {
		t.Fatalf("deterministic produced %d outcomes", det)
	}
	if rnd <= det {
		t.Fatalf("random produced %d outcomes, want > 1", rnd)
	}
}

// TestStaticShape pins E8: pruning reduces events overall and the
// account suspect hits ground truth.
func TestStaticShape(t *testing.T) {
	tables, err := Static(StaticConfig{Programs: []string{"account", "checkthenact", "lockedcounter"}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if got := cell(t, tbl, func(r []string) bool { return r[0] == "account" }, "hit"); got != "yes" {
		t.Fatalf("account suspect hit = %q", got)
	}
	full := atoiCell(t, cell(t, tbl, func(r []string) bool { return r[0] == "account" }, "events_full"))
	pruned := atoiCell(t, cell(t, tbl, func(r []string) bool { return r[0] == "account" }, "events_pruned"))
	if pruned > full {
		t.Fatalf("pruned events %d > full %d", pruned, full)
	}
}

// TestTraceShape pins E9: binary beats JSONL and bug records exist.
func TestTraceShape(t *testing.T) {
	tables, err := Trace(TraceConfig{Programs: []string{"account"}, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	row := func(r []string) bool { return r[0] == "account" }
	jb := atoiCell(t, cell(t, tbl, row, "jsonl_bytes"))
	bb := atoiCell(t, cell(t, tbl, row, "binary_bytes"))
	if bb >= jb {
		t.Fatalf("binary %d >= jsonl %d", bb, jb)
	}
	if got := atoiCell(t, cell(t, tbl, row, "bug_marked")); got == 0 {
		t.Fatal("no bug-annotated records")
	}
}

// TestTraceEvalShape pins E10: the account trace violates the lock
// discipline property, the locked counter satisfies it.
func TestTraceEvalShape(t *testing.T) {
	tables, err := TraceEval(TraceEvalConfig{Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	acc := atoiCell(t, cell(t, tbl, func(r []string) bool { return r[0] == "account" }, "ltl_violations"))
	locked := atoiCell(t, cell(t, tbl, func(r []string) bool { return r[0] == "lockedcounter" }, "ltl_violations"))
	if acc == 0 {
		t.Fatal("account lock-discipline property not violated")
	}
	if locked != 0 {
		t.Fatalf("lockedcounter property violated %d times", locked)
	}
}

// TestPipelineShape pins F1: every stage produces an artifact and the
// bug is found and replayed.
func TestPipelineShape(t *testing.T) {
	tables, err := Pipeline(PipelineConfig{Program: "account", Seeds: 300})
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := RenderAll(&txt, tables); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"bug after", "verdict reproduced: fail", "lockset warned [balance]", "violations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("pipeline output missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryDispatch checks Runners/Get plumbing.
func TestRegistryDispatch(t *testing.T) {
	if len(Runners()) != 14 {
		t.Fatalf("runners = %d, want 14", len(Runners()))
	}
	if _, err := Get("E1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestBoundingShape pins E13 on one program: one row per regime
// (labelled by finder name), the bounded regimes exhaust the account
// tree within the budget with the same bug count as full DFS, the
// variable- and thread-bounded ones report a nonzero pruned-option
// count, and the randomized regimes land the bug too.
func TestBoundingShape(t *testing.T) {
	tables, err := Bounding(BoundingConfig{Programs: []string{"account"}, Budget: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "E13" {
		t.Fatalf("E13 table shape wrong: %+v", tables)
	}
	tbl := tables[0]
	regimes := []string{"explore", "explore-pb", "explore-vb", "explore-tb", "explore-por", "fuzz", "pct"}
	if len(tbl.Rows) != len(regimes) {
		t.Fatalf("E13 has %d rows, want one per regime (%d)", len(tbl.Rows), len(regimes))
	}
	get := func(regime, col string) string {
		return cell(t, tbl, func(r []string) bool { return r[1] == regime }, col)
	}
	for _, regime := range regimes {
		if got := get(regime, "first_bug"); got == "-" {
			t.Errorf("%s: no bug found on account", regime)
		}
		if got := atoiCell(t, get(regime, "bugs")); got != 1 {
			t.Errorf("%s: bugs = %d, want 1", regime, got)
		}
	}
	for _, regime := range []string{"explore-pb", "explore-vb", "explore-tb"} {
		if got := get(regime, "exhausted"); got != "yes" {
			t.Errorf("%s: bounded tree not exhausted", regime)
		}
	}
	for _, regime := range []string{"explore-vb", "explore-tb"} {
		if got := atoiCell(t, get(regime, "bound_pruned")); got <= 0 {
			t.Errorf("%s: bound_pruned = %d, want > 0", regime, got)
		}
	}
	for _, regime := range []string{"explore", "explore-pb", "fuzz", "pct"} {
		if got := get(regime, "bound_pruned"); got != "-" {
			t.Errorf("%s: bound_pruned = %q, want '-' (no bound counters)", regime, got)
		}
	}
}

// TestCampaignShape pins E12 on a small matrix: one summary row per
// finder, every finder beats the correct-program control (no bugs on
// lockedcounter reflected as found_cells < cells), and the fuzz and
// noise rows land bugs on the buggy programs.
func TestCampaignShape(t *testing.T) {
	tables, err := Campaign(CampaignConfig{Campaign: campaign.Config{
		Programs: []string{"account", "lockedcounter"},
		Finders:  []string{"fuzz", "noise"},
		Budget:   80,
		Workers:  2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "E12" || tables[1].ID != "E12b" {
		t.Fatalf("E12 table shape wrong: %+v", tables)
	}
	summary := tables[0]
	if len(summary.Rows) != 2 {
		t.Fatalf("E12 has %d rows, want one per finder", len(summary.Rows))
	}
	for _, finder := range []string{"fuzz", "noise"} {
		get := func(col string) string {
			return cell(t, summary, func(r []string) bool { return r[0] == finder }, col)
		}
		if got := atoiCell(t, get("cells")); got != 2 {
			t.Errorf("%s: cells = %d, want 2", finder, got)
		}
		if got := atoiCell(t, get("found_cells")); got != 1 {
			t.Errorf("%s: found_cells = %d, want 1 (account buggy, lockedcounter correct)", finder, got)
		}
	}
	perCell := tables[1]
	if len(perCell.Rows) != 4 {
		t.Fatalf("E12b has %d rows, want 4 cells", len(perCell.Rows))
	}
}
