// The persistent campaign store: an append-only JSONL journal with a
// canonical compacted form.
//
// Line 1 is the meta record pinning the campaign config (the
// CK-framework discipline: results without their reproducible config
// are just numbers); every further line is one completed cell. While a
// campaign runs, cells append in completion order — that is what makes
// interruption safe, a partial journal is still a valid store. When a
// campaign completes, Compact rewrites the file in canonical cell
// order, so any two completed runs of the same fixed-seed config are
// byte-identical and `diff` / git are meaningful over baselines.
package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// storeVersion tags the meta line so future format changes can be
// detected instead of misparsed.
const storeVersion = 1

// metaLine is the store's first line.
type metaLine struct {
	Campaign int    `json:"campaign"` // format version
	Config   Config `json:"config"`
}

// Store is a campaign result store: an in-memory record map mirrored
// to a JSONL journal (unless created in-memory only). Safe for
// concurrent use by the cell worker pool.
type Store struct {
	mu   sync.Mutex
	path string   // "" = in-memory
	f    *os.File // append handle, nil when in-memory
	cfg  Config
	recs map[string]Record
	sync bool  // fsync after every append (see SetSync)
	torn int64 // bytes Open truncated as a torn tail (see TornBytes)
}

// Create makes a fresh store at path (truncating any existing file)
// and writes the meta line for cfg.
func Create(path string, cfg Config) (*Store, error) {
	cfg = cfg.normalized()
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: create store: %w", err)
	}
	s := &Store{path: path, f: f, cfg: cfg, recs: map[string]Record{}}
	if err := s.writeLine(metaLine{Campaign: storeVersion, Config: cfg}); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Open loads an existing store for resumption: the meta line yields
// the campaign config, every cell line a completed record, and the
// file stays open for appending. A torn tail left by a crash
// mid-append is truncated away first, so the next append starts on a
// clean line boundary (the torn cell simply re-runs).
func Open(path string) (*Store, error) {
	cfg, recs, validLen, err := loadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	var torn int64
	if info, err := f.Stat(); err == nil && info.Size() > validLen {
		torn = info.Size() - validLen
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: truncate torn store tail: %w", err)
		}
	}
	s := &Store{path: path, f: f, cfg: cfg, recs: map[string]Record{}, torn: torn}
	for _, r := range recs {
		s.recs[r.Key()] = r
	}
	return s, nil
}

// NewMemStore is a store with no backing file — the form experiments
// and tests use when persistence is not the point.
func NewMemStore(cfg Config) *Store {
	return &Store{cfg: cfg.normalized(), recs: map[string]Record{}}
}

// Load reads a store file without holding it open: the campaign config
// and the completed records in canonical order. This is the read path
// Compare and the gate use.
func Load(path string) (Config, []Record, error) {
	cfg, recs, _, err := loadFile(path)
	return cfg, recs, err
}

// loadFile reads and parses a store file (see parseStore).
func loadFile(path string) (Config, []Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, nil, 0, fmt.Errorf("campaign: load store: %w", err)
	}
	cfg, recs, validLen, err := parseStore(data)
	if err != nil {
		return Config{}, nil, 0, fmt.Errorf("campaign: store %s %w", path, err)
	}
	return cfg, recs, validLen, nil
}

// parseStore parses store bytes and additionally reports the byte
// length of their valid prefix. Every newline-terminated line must
// parse — a bad line in the middle is corruption and errors — but a
// final unterminated chunk is tolerated as the torn tail of an append
// that a crash (SIGKILL, OOM, power loss) cut short: it is excluded from
// the records and from the valid length, so Open can truncate it and
// the interrupted cell simply re-runs on resume. A line that parses
// but cannot be a result of the pinned config (see checkRecord) is
// corruption too.
func parseStore(data []byte) (Config, []Record, int64, error) {
	var meta metaLine
	var cells map[string]bool
	byKey := map[string]Record{}
	var validLen int64
	rest := data
	lineNo := 0
	for len(rest) > 0 {
		lineNo++
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// Unterminated final chunk: a torn append. The meta line has
			// no completed cells to salvage, so a torn line 1 is still an
			// invalid store.
			if lineNo == 1 {
				return Config{}, nil, 0, errors.New("has no valid meta line")
			}
			break
		}
		line := rest[:nl]
		rest = rest[nl+1:]
		switch {
		case lineNo == 1:
			if err := json.Unmarshal(line, &meta); err != nil || meta.Campaign == 0 {
				return Config{}, nil, 0, errors.New("has no valid meta line")
			}
			if meta.Campaign != storeVersion {
				return Config{}, nil, 0, fmt.Errorf("has format version %d, want %d", meta.Campaign, storeVersion)
			}
			cells = map[string]bool{}
			for _, c := range Cells(meta.Config) {
				cells[c.Key()] = true
			}
		case len(line) > 0:
			var rec Record
			if err := json.Unmarshal(line, &rec); err != nil {
				return Config{}, nil, 0, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if err := checkRecord(rec, cells); err != nil {
				return Config{}, nil, 0, fmt.Errorf("line %d: %w", lineNo, err)
			}
			byKey[rec.Key()] = rec
		}
		validLen += int64(nl + 1)
	}
	if lineNo == 0 {
		return Config{}, nil, 0, errors.New("is empty (no meta line)")
	}

	recs := make([]Record, 0, len(byKey))
	for _, r := range byKey {
		recs = append(recs, r)
	}
	sortRecords(recs)
	return meta.Config.normalized(), recs, validLen, nil
}

// checkRecord refuses a parsed cell line that no run of the store's
// config can have written: a cell outside its matrix (which is also
// what an empty object or null parses to), more runs than the budget,
// or a first bug that is neither -1 nor one of the runs.
func checkRecord(rec Record, cells map[string]bool) error {
	if !cells[rec.Key()] {
		return fmt.Errorf("cell %s/%s seed=%d budget=%d is not in the store's matrix",
			rec.Program, rec.Finder, rec.Seed, rec.Budget)
	}
	if rec.Runs < 0 || rec.Runs > rec.Budget {
		return fmt.Errorf("runs %d outside 0..budget %d", rec.Runs, rec.Budget)
	}
	if rec.FirstBug != -1 && (rec.FirstBug < 1 || rec.FirstBug > rec.Runs) {
		return fmt.Errorf("first_bug %d is neither -1 nor in 1..runs %d", rec.FirstBug, rec.Runs)
	}
	return nil
}

// Config returns the campaign config pinned in the store.
func (s *Store) Config() Config { return s.cfg }

// SetSync toggles fsync-on-append: with it on, every journal line is
// forced to stable storage before Append returns. Off by default — a
// local campaign prefers speed and recovers a torn tail on Open by
// re-running one cell — but the distributed coordinator turns it on,
// because its merged store is the single copy of an entire fleet's
// work and "short of losing the store" is the fault model's boundary.
func (s *Store) SetSync(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sync = on
}

// TornBytes reports how many trailing bytes Open discarded as the
// torn tail of a crashed append — 0 for a cleanly closed store. The
// CLI surfaces it as a warning; the truncated cell simply re-runs.
func (s *Store) TornBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.torn
}

// Path returns the backing file path ("" for in-memory stores).
func (s *Store) Path() string { return s.path }

// Has reports whether the cell is already completed.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.recs[key]
	return ok
}

// Len returns the number of completed cells.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Append streams a completed cell to the journal and then records it,
// so a cell whose line could not be written is not reported by Has.
func (s *Store) Append(rec Record) error {
	if rec.Bugs == nil {
		rec.Bugs = []string{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeLineLocked(rec); err != nil {
		return err
	}
	s.recs[rec.Key()] = rec
	return nil
}

// Records returns the completed cells in canonical order.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]Record, 0, len(s.recs))
	for _, r := range s.recs {
		recs = append(recs, r)
	}
	sortRecords(recs)
	return recs
}

// Compact rewrites the journal in canonical order (meta line, then
// cells sorted by key), atomically via a temp file + rename. After
// compaction two completed runs of the same fixed-seed config are
// byte-identical. With SetSync on, the temp file is fsynced before the
// rename and the directory after it, so a crash cannot leave the
// rename pointing at unwritten data. No-op for in-memory stores.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}

	tmp := s.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("campaign: compact store: %w", err)
	}
	w := bufio.NewWriter(f)
	write := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		_, err = w.Write(b)
		return err
	}
	err = write(metaLine{Campaign: storeVersion, Config: s.cfg})
	recs := make([]Record, 0, len(s.recs))
	for _, r := range s.recs {
		recs = append(recs, r)
	}
	sortRecords(recs)
	for _, r := range recs {
		if err != nil {
			break
		}
		err = write(r)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil && s.sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: compact store: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: compact store: %w", err)
	}

	// Reopen the append handle on the compacted file.
	s.f.Close()
	f, err = os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("campaign: compact store: %w", err)
	}
	s.f = f
	if s.sync {
		if err := syncDir(filepath.Dir(s.path)); err != nil {
			return fmt.Errorf("campaign: compact store: %w", err)
		}
	}
	return nil
}

// Close releases the journal handle (in-memory stores: no-op).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Store) writeLine(v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeLineLocked(v)
}

func (s *Store) writeLineLocked(v any) error {
	if s.f == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("campaign: encode store line: %w", err)
	}
	b = append(b, '\n')
	if _, err := s.f.Write(b); err != nil {
		return fmt.Errorf("campaign: write store line: %w", err)
	}
	if s.sync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("campaign: sync store: %w", err)
		}
	}
	return nil
}
