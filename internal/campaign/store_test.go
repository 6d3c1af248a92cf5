package campaign

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestStoreAppendLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	cfg := testConfig()
	store, err := Create(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Append out of canonical order; bugs nil normalizes to [].
	r2 := rec("semleak", "noise", 0, 60, nil, -1)
	r1 := rec("account", "fuzz", 0, 60, []string{"fail:x"}, 3)
	if err := store.Append(r2); err != nil {
		t.Fatal(err)
	}
	if err := store.Append(r1); err != nil {
		t.Fatal(err)
	}
	if !store.Has(r1.Key()) || store.Len() != 2 {
		t.Fatalf("store state wrong: len=%d", store.Len())
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	gotCfg, recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotCfg.Fingerprint() != cfg.Fingerprint() {
		t.Fatal("loaded config does not match the created one")
	}
	if len(recs) != 2 || recs[0].Program != "account" || recs[1].Program != "semleak" {
		t.Fatalf("loaded records not in canonical order: %v", recs)
	}
	if recs[1].Bugs == nil || len(recs[1].Bugs) != 0 {
		t.Fatalf("empty bug set did not round-trip as []: %#v", recs[1].Bugs)
	}
}

func TestStoreCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	store, err := Create(path, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.Append(rec("semleak", "noise", 0, 60, nil, -1))
	store.Append(rec("account", "fuzz", 0, 60, []string{"fail:x"}, 3))
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		t.Fatalf("compacted store has %d lines, want meta + 2 cells", len(lines))
	}
	if !strings.Contains(lines[1], `"program":"account"`) || !strings.Contains(lines[2], `"program":"semleak"`) {
		t.Fatalf("compacted store not in canonical order:\n%s", raw)
	}

	// The append handle survives compaction.
	if err := store.Append(rec("lockedcounter", "race", 0, 60, nil, -1)); err != nil {
		t.Fatal(err)
	}
	store.Close()
	_, recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("post-compact append lost: %d records", len(recs))
	}
}

func TestLoadRejectsBadStores(t *testing.T) {
	dir := t.TempDir()

	empty := filepath.Join(dir, "empty.jsonl")
	os.WriteFile(empty, nil, 0o644)
	if _, _, err := Load(empty); err == nil {
		t.Fatal("empty store accepted")
	}

	noMeta := filepath.Join(dir, "nometa.jsonl")
	os.WriteFile(noMeta, []byte(`{"program":"account","finder":"fuzz"}`+"\n"), 0o644)
	if _, _, err := Load(noMeta); err == nil {
		t.Fatal("store without meta line accepted")
	}

	badVersion := filepath.Join(dir, "badver.jsonl")
	os.WriteFile(badVersion, []byte(`{"campaign":99,"config":{}}`+"\n"), 0o644)
	if _, _, err := Load(badVersion); err == nil {
		t.Fatal("future store version accepted")
	}

	garbage := filepath.Join(dir, "garbage.jsonl")
	os.WriteFile(garbage, []byte(`{"campaign":1,"config":{}}`+"\nnot json\n"), 0o644)
	if _, _, err := Load(garbage); err == nil {
		t.Fatal("corrupt cell line accepted")
	}

	if _, _, err := Load(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadRejectsImpossibleCells: a cell line that parses as JSON but
// that no run of the store's config can have written is refused with
// its line number, whether it sits in the middle of the store or ends
// it.
func TestLoadRejectsImpossibleCells(t *testing.T) {
	const meta = `{"campaign":1,"config":{"finders":["fuzz","noise"],"programs":["account","semleak"],"seeds":[0],"budget":60,"max_steps":200000,"params":{}}}`
	const good = `{"program":"account","finder":"fuzz","seed":0,"budget":60,"runs":60,"bugs":["fail:x"],"first_bug":3,"wall_ms":0}`
	for _, tc := range []struct{ name, line string }{
		{"empty-object", `{}`},
		{"null", `null`},
		{"unknown-program", `{"program":"zzz","finder":"fuzz","seed":0,"budget":60,"runs":9999,"bugs":[],"first_bug":-1,"wall_ms":0}`},
		{"unknown-finder", `{"program":"account","finder":"zzz","seed":0,"budget":60,"runs":60,"bugs":[],"first_bug":-1,"wall_ms":0}`},
		{"foreign-seed", `{"program":"account","finder":"fuzz","seed":7,"budget":60,"runs":60,"bugs":[],"first_bug":-1,"wall_ms":0}`},
		{"foreign-budget", `{"program":"account","finder":"fuzz","seed":0,"budget":9999,"runs":60,"bugs":[],"first_bug":-1,"wall_ms":0}`},
		{"runs-over-budget", `{"program":"account","finder":"noise","seed":0,"budget":60,"runs":61,"bugs":[],"first_bug":-1,"wall_ms":0}`},
		{"negative-runs", `{"program":"account","finder":"noise","seed":0,"budget":60,"runs":-1,"bugs":[],"first_bug":-1,"wall_ms":0}`},
		{"first-bug-zero", `{"program":"semleak","finder":"fuzz","seed":0,"budget":60,"runs":60,"bugs":["fail:x"],"first_bug":0,"wall_ms":0}`},
		{"first-bug-past-runs", `{"program":"semleak","finder":"fuzz","seed":0,"budget":60,"runs":10,"bugs":["fail:x"],"first_bug":11,"wall_ms":0}`},
		{"first-bug-below-minus-one", `{"program":"semleak","finder":"fuzz","seed":0,"budget":60,"runs":60,"bugs":[],"first_bug":-2,"wall_ms":0}`},
	} {
		for _, at := range []struct {
			line int
			data string
		}{
			{2, meta + "\n" + tc.line + "\n" + good + "\n"},
			{3, meta + "\n" + good + "\n" + tc.line + "\n"},
		} {
			_, _, _, err := parseStore([]byte(at.data))
			if err == nil {
				t.Fatalf("%s at line %d: store accepted", tc.name, at.line)
			}
			if want := fmt.Sprintf("line %d:", at.line); !strings.Contains(err.Error(), want) {
				t.Fatalf("%s at line %d: error %q does not name the line", tc.name, at.line, err)
			}
		}
	}
	if _, recs, _, err := parseStore([]byte(meta + "\n" + good + "\n")); err != nil || len(recs) != 1 {
		t.Fatalf("valid store: %d records, error %v", len(recs), err)
	}
}

// TestStoreTornTail pins crash safety beyond graceful SIGINT: a final
// line cut short mid-append (SIGKILL, OOM, power loss) is tolerated
// by Load and truncated by Open, so the store resumes instead of
// stranding its completed cells. A bad line in the middle is still
// corruption.
func TestStoreTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	store, err := Create(path, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	store.Append(rec("account", "fuzz", 0, 60, []string{"fail:x"}, 3))
	store.Close()

	// Simulate a torn append: a partial JSON object with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"program":"semleak","finder":"noi`)
	f.Close()

	_, recs, err := Load(path)
	if err != nil {
		t.Fatalf("torn tail rejected by Load: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("torn store has %d records, want the 1 completed cell", len(recs))
	}

	// Open truncates the tail so the next append lands on a clean line.
	store, err = Open(path)
	if err != nil {
		t.Fatalf("torn tail rejected by Open: %v", err)
	}
	if err := store.Append(rec("semleak", "noise", 0, 60, nil, -1)); err != nil {
		t.Fatal(err)
	}
	store.Close()
	_, recs, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("post-truncate append gave %d records, want 2", len(recs))
	}

	// A torn line in the MIDDLE is corruption, not a tail.
	raw, _ := os.ReadFile(path)
	corrupt := filepath.Join(t.TempDir(), "corrupt.jsonl")
	os.WriteFile(corrupt, append([]byte(`{"campaign":1,"config":{}}`+"\n"+`{"program":"acc`+"\n"), raw...), 0o644)
	if _, _, err := Load(corrupt); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// TestEmptyParamsRoundTrip pins that an explicitly-empty Params map
// (no overrides: full-size programs) survives the store meta line
// instead of collapsing to nil and silently re-normalizing to the
// explorable sizes on resume.
func TestEmptyParamsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	cfg := testConfig()
	cfg.Params = map[string]map[string]int{}
	store, err := Create(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	loaded, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Params) != 0 || loaded.Params == nil {
		t.Fatalf("empty Params became %v after the store round trip", loaded.Params)
	}
	if loaded.Fingerprint() != cfg.Fingerprint() {
		t.Fatal("empty-Params config changed fingerprint across the store round trip")
	}
}

// TestMemStore pins that in-memory stores behave like file stores
// minus persistence (the E12 path).
func TestMemStore(t *testing.T) {
	store := NewMemStore(testConfig())
	store.Append(rec("account", "fuzz", 0, 60, []string{"fail:x"}, 3))
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if got := store.Records(); len(got) != 1 {
		t.Fatalf("mem store lost records: %v", got)
	}
	if store.Path() != "" {
		t.Fatal("mem store has a path")
	}
}

// TestStoreTornBytes pins that Open reports how much torn tail it
// discarded (0 for clean stores) — the CLI's warn-and-continue signal.
func TestStoreTornBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	store, err := Create(path, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	store.Append(rec("account", "fuzz", 0, 60, nil, -1))
	store.Close()

	store, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := store.TornBytes(); n != 0 {
		t.Fatalf("clean store reports %d torn bytes", n)
	}
	store.Close()

	torn := []byte(`{"program":"semleak","finder":"noi`)
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write(torn)
	f.Close()

	store, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if n := store.TornBytes(); n != int64(len(torn)) {
		t.Fatalf("TornBytes = %d, want %d", n, len(torn))
	}
}

// TestStoreSync pins that fsync-on-append keeps working appends (the
// coordinator's crash-safety mode; correctness of the data path, the
// durability side being the kernel's job).
func TestStoreSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	store, err := Create(path, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	store.SetSync(true)
	if err := store.Append(rec("account", "fuzz", 0, 60, []string{"fail:x"}, 3)); err != nil {
		t.Fatalf("synced append: %v", err)
	}
	if err := store.Append(rec("semleak", "noise", 0, 60, nil, -1)); err != nil {
		t.Fatalf("synced append: %v", err)
	}
	store.Close()

	_, recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("synced store has %d records, want 2", len(recs))
	}

	// In-memory stores tolerate the toggle (no file to sync).
	mem := NewMemStore(testConfig())
	mem.SetSync(true)
	if err := mem.Append(rec("account", "fuzz", 0, 60, nil, -1)); err != nil {
		t.Fatalf("mem synced append: %v", err)
	}
}

// TestStoreFailedAppend: a record whose line cannot be written (a NaN
// wall time does not encode) is refused and not recorded, so Has stays
// false and the journal stays as it was; a good retry lands.
func TestStoreFailedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	store, err := Create(path, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	bad := rec("account", "fuzz", 0, 60, nil, -1)
	bad.WallMS = math.NaN()
	if err := store.Append(bad); err == nil {
		t.Fatal("a record with a NaN wall time was appended")
	}
	if store.Has(bad.Key()) || store.Len() != 0 {
		t.Fatalf("refused record counted: has=%v len=%d", store.Has(bad.Key()), store.Len())
	}
	if _, recs, err := Load(path); err != nil || len(recs) != 0 {
		t.Fatalf("journal after a refused append: %d records, %v", len(recs), err)
	}
	if err := store.Append(rec("account", "fuzz", 0, 60, nil, -1)); err != nil {
		t.Fatal(err)
	}
	if !store.Has(bad.Key()) {
		t.Fatal("good retry not recorded")
	}
}

// TestStoreSyncedCompact: a synced store compacts to the same bytes as
// an unsynced one, leaves no temp file, and keeps appending.
func TestStoreSyncedCompact(t *testing.T) {
	dir := t.TempDir()
	compacted := func(name string, sync bool) []byte {
		path := filepath.Join(dir, name)
		store, err := Create(path, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		store.SetSync(sync)
		store.Append(rec("semleak", "noise", 0, 60, nil, -1))
		store.Append(rec("account", "fuzz", 0, 60, []string{"fail:x"}, 3))
		if err := store.Compact(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("compaction left its temp file: %v", err)
		}
		if err := store.Append(rec("lockedcounter", "race", 0, 60, nil, -1)); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if synced, plain := compacted("synced.jsonl", true), compacted("plain.jsonl", false); !bytes.Equal(synced, plain) {
		t.Fatalf("synced compaction differs:\n%s\n%s", synced, plain)
	}
}

// FuzzStoreLoad: parsing store bytes never panics, and what it accepts
// has a valid prefix that re-parses to the same config and records —
// the prefix Open truncates a torn store to.
func FuzzStoreLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, recs, validLen, err := parseStore(data)
		if err != nil {
			return
		}
		if validLen > int64(len(data)) {
			t.Fatalf("valid length %d past the %d input bytes", validLen, len(data))
		}
		cfg2, recs2, validLen2, err := parseStore(data[:validLen])
		if err != nil {
			t.Fatalf("valid prefix rejected: %v", err)
		}
		if validLen2 != validLen || !reflect.DeepEqual(cfg2, cfg) || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("valid prefix re-parses differently:\n%d %+v %+v\n%d %+v %+v", validLen, cfg, recs, validLen2, cfg2, recs2)
		}
	})
}

// TestSubMillisecondWallTime: a timed cell records its wall time to
// the microsecond, so a cell shorter than a millisecond reads above 0
// rather than 0, and a store carrying fractional wall_ms values loads
// and compacts back to the same bytes.
func TestSubMillisecondWallTime(t *testing.T) {
	cfg := Config{Finders: []string{"noise"}, Programs: []string{"lockedcounter"}, Budget: 1, Timing: true}
	rec, err := ExecCell(context.Background(), cfg, Cell{Program: "lockedcounter", Finder: "noise", Seed: 0, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.WallMS <= 0 {
		t.Fatalf("timed one-run cell recorded wall_ms %v, want > 0", rec.WallMS)
	}
	if us := rec.WallMS * 1000; math.Abs(us-math.Round(us)) > 1e-6 {
		t.Fatalf("wall_ms %v is not rounded to the microsecond", rec.WallMS)
	}

	path := filepath.Join(t.TempDir(), "c.jsonl")
	s, err := Create(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := Record{Program: "lockedcounter", Finder: "noise", Seed: 0, Budget: 1, Runs: 1, Bugs: []string{}, FirstBug: -1, WallMS: 0.042}
	if err := s.Append(sub); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"wall_ms":0.042`) {
		t.Fatalf("store does not carry the sub-millisecond wall time:\n%s", data)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Records(); len(got) != 1 || got[0].WallMS != 0.042 {
		t.Fatalf("loaded %+v, want one record with wall_ms 0.042", got)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(path); err != nil || string(again) != string(data) {
		t.Fatalf("compaction changed the store (err %v):\n%s\nwant\n%s", err, again, data)
	}
}
