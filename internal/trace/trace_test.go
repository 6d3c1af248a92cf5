package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

func sampleRecords() []Record {
	return []Record{
		{Seq: 1, Thread: 0, Op: "fork", Name: "w", Value: 1, Why: "lifecycle"},
		{Seq: 2, Thread: 1, Op: "lock", Obj: 3, Name: "mu", Value: 1, File: "repo/x.go", Line: 10, Fn: "x.body", Why: "sync"},
		{Seq: 3, Thread: 1, Op: "read", Obj: 4, Name: "bal", Value: -7, Atomic: true, File: "repo/x.go", Line: 11, Fn: "x.body", Why: "shared-access", Bug: true},
		{Seq: 4, Thread: 1, Op: "unlock", Obj: 3, Name: "mu", File: "repo/x.go", Line: 12, Fn: "x.body", Why: "sync"},
		{Seq: 9, Thread: 0, Op: "end", Why: "lifecycle"},
	}
}

// roundtrip writes recs with mk and requires rd to read them back.
func roundtrip(t *testing.T, mk func(w io.Writer) Writer, rd func(r io.Reader) (Reader, error), recs []Record) {
	t.Helper()
	var buf bytes.Buffer
	w := mk(&buf)
	h := Header{Program: "p", Mode: "controlled", Seed: 42, Strategy: "random", Bug: "race on bal"}
	if err := w.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := rd(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gh := r.Header()
	if gh.Program != "p" || gh.Seed != 42 || gh.Bug != "race on bal" {
		t.Fatalf("header = %+v", gh)
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

func TestJSONLRoundtrip(t *testing.T) {
	roundtrip(t, NewJSONLWriter, NewJSONLReader, sampleRecords())
}

func TestBinaryRoundtrip(t *testing.T) {
	roundtrip(t, NewBinaryWriter, NewBinaryReader, sampleRecords())
}

// TestBinarySmallerThanJSONL pins the E9 expectation: interning plus
// varints must beat JSON text on a realistic trace.
func TestBinarySmallerThanJSONL(t *testing.T) {
	var jb, bb bytes.Buffer
	jw, bw := NewJSONLWriter(&jb), NewBinaryWriter(&bb)
	for _, w := range []Writer{jw, bw} {
		if err := w.WriteHeader(Header{Program: "p"}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		rec := Record{
			Seq:    int64(i + 1),
			Thread: int32(rng.Intn(4)),
			Op:     []string{"read", "write", "lock", "unlock"}[rng.Intn(4)],
			Obj:    int64(rng.Intn(8)),
			Name:   []string{"bal", "mu", "count"}[rng.Intn(3)],
			Value:  rng.Int63n(100),
			File:   "repository/prog_account.go",
			Line:   20 + rng.Intn(30),
			Fn:     "repository.accountBody",
			Why:    "shared-access",
		}
		if err := jw.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
		if err := bw.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if bb.Len()*3 > jb.Len() {
		t.Fatalf("binary %d bytes not <1/3 of jsonl %d bytes", bb.Len(), jb.Len())
	}
}

// TestRecordEventRoundtrip property-tests Record<->Event conversion
// over randomized records.
func TestRecordEventRoundtrip(t *testing.T) {
	ops := []core.Op{core.OpFork, core.OpJoin, core.OpEnd, core.OpRead, core.OpWrite,
		core.OpLock, core.OpUnlock, core.OpBlock, core.OpRLock, core.OpRUnlock,
		core.OpWait, core.OpAwake, core.OpSignal, core.OpBroadcast, core.OpYield,
		core.OpSleep, core.OpOutcome, core.OpFail}
	f := func(seq int64, tid uint8, opIdx uint8, obj int64, name string, val int64, atomic bool, line uint16) bool {
		ev := core.Event{
			Seq:    seq,
			Thread: core.ThreadID(tid),
			Op:     ops[int(opIdx)%len(ops)],
			Obj:    core.ObjectID(obj),
			Name:   name,
			Value:  val,
			Loc:    core.Location{File: "f.go", Line: int(line), Fn: "fn"},
		}
		if atomic {
			ev.Flags |= core.FlagAtomic
		}
		rec := FromEvent(&ev)
		back, err := rec.Event()
		return err == nil && back == ev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryStringInterningProperty round-trips random record batches
// through the binary codec to exercise the intern table.
func TestBinaryStringInterningProperty(t *testing.T) {
	f := func(names []string, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		if err := w.WriteHeader(Header{Program: "q"}); err != nil {
			return false
		}
		var want []Record
		seq := int64(0)
		for i := 0; i < 50; i++ {
			var name string
			if len(names) > 0 {
				name = names[rng.Intn(len(names))]
			}
			seq += int64(rng.Intn(5) + 1)
			rec := Record{Seq: seq, Thread: int32(rng.Intn(3)), Op: "write", Name: name, Value: rng.Int63() - (1 << 62)}
			want = append(want, rec)
			if err := w.WriteRecord(rec); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewBinaryReader(&buf)
		if err != nil {
			return false
		}
		got, err := ReadAll(r)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedBinaryTrace checks that mid-record truncation surfaces
// as ErrUnexpectedEOF, not a silent short read.
func TestTruncatedBinaryTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.WriteHeader(Header{Program: "p"}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(Record{Seq: 1, Op: "lock", Name: "some-lock-name"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	r, err := NewBinaryReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestOversizedBinaryHeader checks that a header length past the cap
// is refused with an error naming it, not allocated.
func TestOversizedBinaryHeader(t *testing.T) {
	in := []byte("MTBT\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f")
	_, err := NewBinaryReader(bytes.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "9223372036854775807") {
		t.Fatalf("err = %v, want a header-length error", err)
	}
}

// TestCollectorEndToEnd runs a controlled program with a trace
// collector attached and replays the trace into a counting listener,
// checking the offline stream equals the online one.
func TestCollectorEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	if err := w.WriteHeader(Header{Program: "demo", Mode: "controlled"}); err != nil {
		t.Fatal(err)
	}
	col := NewCollector(w, func(ev *core.Event) (string, bool) {
		return DefaultWhy(ev), ev.Name == "x"
	})
	var online int
	res := sched.Run(sched.Config{
		Listeners: []core.Listener{col, core.ListenerFunc(func(*core.Event) { online++ })},
	}, func(ct core.T) {
		x := ct.NewInt("x", 0)
		h := ct.Go("w", func(wt core.T) { x.Add(wt, 1) })
		h.Join(ct)
		ct.Assert(x.Load(ct) == 1, "x=%d", x.Load(ct))
	})
	if res.Verdict != core.VerdictPass {
		t.Fatalf("run: %v", res)
	}
	if err := col.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewJSONLReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var offline, bugMarked int
	recs, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		offline++
		if rec.Bug {
			bugMarked++
		}
		if rec.Why == "" {
			t.Fatalf("record %d missing why annotation", rec.Seq)
		}
	}
	if offline != online {
		t.Fatalf("offline %d records, online %d events", offline, online)
	}
	if bugMarked == 0 {
		t.Fatal("no bug-involved records marked")
	}
}
