package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStringParseRoundtrip(t *testing.T) {
	for op := OpFork; op < Op(NumOps); op++ {
		name := op.String()
		back, err := ParseOp(name)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if back != op {
			t.Fatalf("roundtrip %v -> %q -> %v", op, name, back)
		}
	}
	if _, err := ParseOp("frobnicate"); err == nil {
		t.Fatal("bad op parsed")
	}
	if _, err := ParseOp("invalid"); err == nil {
		t.Fatal("the invalid sentinel must not parse")
	}
}

func TestOpClassification(t *testing.T) {
	if !OpRead.IsAccess() || !OpWrite.IsAccess() || OpLock.IsAccess() {
		t.Fatal("IsAccess")
	}
	for _, op := range []Op{OpLock, OpUnlock, OpBlock, OpRLock, OpRUnlock, OpWait, OpAwake, OpSignal, OpBroadcast} {
		if !op.IsSync() {
			t.Fatalf("%v not sync", op)
		}
	}
	for _, op := range []Op{OpRead, OpWrite, OpFork, OpJoin, OpYield, OpSleep, OpFail} {
		if op.IsSync() {
			t.Fatalf("%v wrongly sync", op)
		}
	}
}

func TestLocationString(t *testing.T) {
	var zero Location
	if zero.String() != "?" {
		t.Fatalf("zero location = %q", zero.String())
	}
	l := Location{File: "pkg/x.go", Line: 12, Fn: "pkg.body"}
	if l.String() != "pkg/x.go:12 (pkg.body)" {
		t.Fatalf("loc = %q", l.String())
	}
	if l.Key() != "pkg/x.go:12" {
		t.Fatalf("key = %q", l.Key())
	}
}

func TestCallerLocation(t *testing.T) {
	loc, _ := CallerLocationID(0)
	if !strings.HasSuffix(loc.File, "core/core_test.go") {
		t.Fatalf("file = %q", loc.File)
	}
	if loc.Line == 0 || !strings.Contains(loc.Fn, "TestCallerLocation") {
		t.Fatalf("loc = %+v", loc)
	}
	// Cached second resolution must agree.
	if loc2, _ := CallerLocationID(0); loc2.File != loc.File {
		t.Fatalf("cache mismatch: %v vs %v", loc, loc2)
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Seq: 7, Thread: 2, Op: OpWrite, Name: "bal", Value: 42,
		Loc: Location{File: "a/b.go", Line: 3}}
	s := ev.String()
	for _, want := range []string{"#7", "t2", "write", "bal", "val=42", "a/b.go:3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
}

func TestFlags(t *testing.T) {
	var f Flags
	if f.Atomic() {
		t.Fatal("zero flags atomic")
	}
	if !(f | FlagAtomic).Atomic() {
		t.Fatal("atomic flag not detected")
	}
}

func TestVerdicts(t *testing.T) {
	if VerdictPass.Bug() {
		t.Fatal("pass counted as bug")
	}
	for _, v := range []Verdict{VerdictFail, VerdictDeadlock, VerdictStepLimit, VerdictTimeout, VerdictDiverged} {
		if !v.Bug() {
			t.Fatalf("%v not a bug", v)
		}
	}
	if VerdictDeadlock.String() != "deadlock" {
		t.Fatalf("verdict string = %q", VerdictDeadlock)
	}
}

func TestMultiListenerOrder(t *testing.T) {
	var got []int
	ml := MultiListener{
		ListenerFunc(func(*Event) { got = append(got, 1) }),
		ListenerFunc(func(*Event) { got = append(got, 2) }),
	}
	ml.OnEvent(&Event{})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("order = %v", got)
	}
}

type obs struct {
	starts, ends int
}

func (o *obs) OnEvent(*Event)   {}
func (o *obs) RunStart(RunInfo) { o.starts++ }
func (o *obs) RunEnd(*Result)   { o.ends++ }

func TestRunObserverDispatch(t *testing.T) {
	o := &obs{}
	ml := MultiListener{o, ListenerFunc(func(*Event) {})}
	ml.StartRun(RunInfo{Program: "p"})
	ml.EndRun(&Result{})
	if o.starts != 1 || o.ends != 1 {
		t.Fatalf("observer: %+v", o)
	}
}

func TestRecoverThreadClassification(t *testing.T) {
	if f, aborted := RecoverThread(nil, 1); f != nil || aborted {
		t.Fatal("nil recover misclassified")
	}
	f, aborted := RecoverThread(failPanic{f: Failure{Msg: "m", Thread: 1}}, 1)
	if f == nil || f.Msg != "m" || aborted {
		t.Fatal("failPanic misclassified")
	}
	if f, aborted := RecoverThread(abortPanic{}, 1); f != nil || !aborted {
		t.Fatal("abortPanic misclassified")
	}
	f, aborted = RecoverThread("boom", 3)
	if f == nil || aborted || !strings.Contains(f.Msg, "boom") || f.Thread != 3 {
		t.Fatalf("foreign panic: %+v aborted=%v", f, aborted)
	}
}

// Property: trimPath keeps at most the last two path elements.
func TestTrimPathProperty(t *testing.T) {
	f := func(parts []string) bool {
		clean := parts[:0]
		for _, p := range parts {
			if p != "" && !strings.ContainsAny(p, "/\x00") {
				clean = append(clean, p)
			}
		}
		if len(clean) == 0 {
			return true
		}
		joined := strings.Join(clean, "/")
		got := trimPath(joined)
		n := strings.Count(got, "/")
		if n > 1 {
			return false
		}
		return strings.HasSuffix(joined, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// maskedListener subscribes to a subset of event classes via OpFilter.
type maskedListener struct {
	mask OpMask
	seen int
}

func (m *maskedListener) OnEvent(*Event)  { m.seen++ }
func (m *maskedListener) WantOps() OpMask { return m.mask }

// TestWantMask pins the subscription-mask algebra runtimes use to skip
// listener fan-out: filtered listeners union their masks, any
// unfiltered listener widens to AllOps, and an empty listener set
// wants nothing.
func TestWantMask(t *testing.T) {
	if got := (MultiListener{}).WantMask(); got != 0 {
		t.Fatalf("empty MultiListener mask = %b, want 0", got)
	}
	a := &maskedListener{mask: MaskOf(OpRead, OpWrite)}
	b := &maskedListener{mask: MaskOf(OpLock)}
	m := MultiListener{a, b}.WantMask()
	for _, op := range []Op{OpRead, OpWrite, OpLock} {
		if !m.Has(op) {
			t.Fatalf("mask %b missing %v", m, op)
		}
	}
	if m.Has(OpYield) || m.Has(OpFork) {
		t.Fatalf("mask %b includes unsubscribed ops", m)
	}
	plain := ListenerFunc(func(*Event) {})
	if got := (MultiListener{a, plain}).WantMask(); got != AllOps {
		t.Fatalf("unfiltered listener should widen mask to AllOps, got %b", got)
	}
}

// TestInterners pins the handle tables: stable handles for repeated
// strings, 0 for empty, lookup-without-intern, and exact round trips
// (coverage reconstructs its legacy string keys from these).
func TestInterners(t *testing.T) {
	if id := InternName(""); id != 0 {
		t.Fatalf("empty name interned to %d, want 0", id)
	}
	id1 := InternName("core-test-var")
	id2 := InternName("core-test-var")
	if id1 == 0 || id1 != id2 {
		t.Fatalf("unstable name handles: %d vs %d", id1, id2)
	}
	if got := InternedName(id1); got != "core-test-var" {
		t.Fatalf("round trip = %q", got)
	}
	if _, ok := LookupName("never-interned-name"); ok {
		t.Fatal("LookupName invented a handle")
	}
	lid := InternLocKey("dir/file.go", 42)
	if lid == 0 || InternLocKey("dir/file.go", 42) != lid {
		t.Fatal("unstable location handles")
	}
	if got, want := InternedLocKey(lid), "dir/file.go:42"; got != want {
		t.Fatalf("loc round trip = %q, want %q", got, want)
	}
	if InternLocKey("dir/file.go", 43) == lid {
		t.Fatal("distinct lines share a handle")
	}
}
