// Coordinator state-machine tests under a fake clock: every recovery
// path — expiry, backoff, eviction, quarantine, duplicate ingestion,
// resumption — as a deterministic advance-and-assert sequence. No
// sleeps, no races: time only moves when the test says so.
package campsvc_test

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mtbench/internal/campaign"
	"mtbench/internal/campsvc"
)

// clock is the injectable test clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1_000_000, 0)} }

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// svcConfig is a small 4-cell matrix (2 programs × 1 finder × 2
// seeds). Explicit finders: campsvc tests must never depend on "all
// registered", the chaos suite registers extra ones.
func svcConfig() campaign.Config {
	return campaign.Config{
		Finders:  []string{"noise"},
		Programs: []string{"lockedcounter", "semleak"},
		Seeds:    []int64{0, 1},
		Budget:   10,
	}
}

// testOpts pins deterministic coordinator options on the fake clock.
func testOpts(ck *clock) campsvc.CoordinatorOptions {
	return campsvc.CoordinatorOptions{
		LeaseTTL:    30 * time.Second,
		MaxAttempts: 3,
		RetryBase:   time.Second,
		RetryMax:    8 * time.Second,
		Now:         ck.Now,
	}
}

// recFor fabricates a completion record for a cell (coordinator tests
// exercise bookkeeping, not finders).
func recFor(cell campaign.Cell) campaign.Record {
	return campaign.Record{Program: cell.Program, Finder: cell.Finder,
		Seed: cell.Seed, Budget: cell.Budget, Runs: 1, Bugs: []string{}, FirstBug: -1}
}

func mustLease(t *testing.T, c *campsvc.Coordinator, worker string) campsvc.Lease {
	t.Helper()
	resp, err := c.Lease(campsvc.LeaseRequest{Worker: worker})
	if err != nil {
		t.Fatalf("Lease(%s): %v", worker, err)
	}
	if resp.Lease == nil {
		t.Fatalf("Lease(%s): no grant (done=%v retry=%dms)", worker, resp.Done, resp.RetryMS)
	}
	return *resp.Lease
}

func TestLeaseLifecycle(t *testing.T) {
	ck := newClock()
	c, err := campsvc.NewCoordinator(svcConfig(), nil, testOpts(ck))
	if err != nil {
		t.Fatal(err)
	}

	cells := campaign.Cells(svcConfig())
	for i := range cells {
		l := mustLease(t, c, "w1")
		if l.Cell != cells[i] {
			t.Fatalf("grant %d = %v, want canonical order %v", i, l.Cell, cells[i])
		}
		if l.Attempt != 1 {
			t.Fatalf("fresh cell granted with attempt %d", l.Attempt)
		}
		resp, err := c.Complete(campsvc.CompleteRequest{Worker: "w1", LeaseID: l.ID, Record: recFor(l.Cell)})
		if err != nil {
			t.Fatalf("Complete: %v", err)
		}
		if resp.Duplicate {
			t.Fatalf("first completion of %s marked duplicate", l.Cell.Key())
		}
	}

	resp, err := c.Lease(campsvc.LeaseRequest{Worker: "w1"})
	if err != nil || !resp.Done {
		t.Fatalf("post-completion lease = %+v, %v; want done", resp, err)
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	st := c.Status()
	if st.Done != 4 || !st.Finished || st.Pending+st.Leased+st.Quarantined != 0 {
		t.Fatalf("final status %+v", st)
	}
}

func TestCompleteIsIdempotent(t *testing.T) {
	ck := newClock()
	c, err := campsvc.NewCoordinator(svcConfig(), nil, testOpts(ck))
	if err != nil {
		t.Fatal(err)
	}
	l := mustLease(t, c, "w1")
	if _, err := c.Complete(campsvc.CompleteRequest{Worker: "w1", LeaseID: l.ID, Record: recFor(l.Cell)}); err != nil {
		t.Fatal(err)
	}
	// The retried upload and the other-worker race both land here.
	resp, err := c.Complete(campsvc.CompleteRequest{Worker: "w2", LeaseID: "stale", Record: recFor(l.Cell)})
	if err != nil {
		t.Fatalf("duplicate completion errored: %v", err)
	}
	if !resp.Duplicate {
		t.Fatal("second completion not marked duplicate")
	}

	if _, err := c.Complete(campsvc.CompleteRequest{Worker: "w1", LeaseID: l.ID,
		Record: campaign.Record{Program: "nosuch", Finder: "noise", Seed: 0, Budget: 10}}); err == nil {
		t.Fatal("completion for a cell outside the matrix accepted")
	}
}

func TestLeaseExpiryRequeuesWithBackoff(t *testing.T) {
	ck := newClock()
	c, err := campsvc.NewCoordinator(svcConfig(), nil, testOpts(ck))
	if err != nil {
		t.Fatal(err)
	}
	l := mustLease(t, c, "w1")

	// While the lease lives, the cell is not re-grantable — but the
	// remaining three cells are.
	for i := 0; i < 3; i++ {
		l2 := mustLease(t, c, "w2")
		if l2.Cell == l.Cell {
			t.Fatal("leased cell granted twice")
		}
	}
	resp, err := c.Lease(campsvc.LeaseRequest{Worker: "w2"})
	if err != nil || resp.Lease != nil || resp.Done {
		t.Fatalf("all-leased matrix still granted: %+v, %v", resp, err)
	}
	if resp.RetryMS <= 0 {
		t.Fatalf("empty grant without retry hint: %+v", resp)
	}

	// Expire w1's lease: its cell fails attempt 1 and re-enters the
	// queue behind the backoff gate (≤ RetryBase), then re-grants as
	// attempt 2.
	ck.Advance(31 * time.Second)
	resp, err = c.Lease(campsvc.LeaseRequest{Worker: "w2"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lease == nil {
		// Still inside the backoff window; step past it.
		ck.Advance(time.Second)
		resp, err = c.Lease(campsvc.LeaseRequest{Worker: "w2"})
		if err != nil || resp.Lease == nil {
			t.Fatalf("expired cell never re-granted: %+v, %v", resp, err)
		}
	}
	if resp.Lease.Cell != l.Cell {
		t.Fatalf("re-grant = %v, want the expired cell %v", resp.Lease.Cell, l.Cell)
	}
	if resp.Lease.Attempt != 2 {
		t.Fatalf("re-granted expired cell at attempt %d, want 2", resp.Lease.Attempt)
	}

	// The original worker's completion still wins if it arrives first:
	// ingestion is keyed by cell, not lease.
	cr, err := c.Complete(campsvc.CompleteRequest{Worker: "w1", LeaseID: l.ID, Record: recFor(l.Cell)})
	if err != nil || cr.Duplicate {
		t.Fatalf("late completion after expiry rejected: %+v, %v", cr, err)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	ck := newClock()
	c, err := campsvc.NewCoordinator(svcConfig(), nil, testOpts(ck))
	if err != nil {
		t.Fatal(err)
	}
	l := mustLease(t, c, "w1")

	// Beat every 20s: each extends the 30s TTL, so the lease survives
	// well past its original deadline.
	for i := 0; i < 5; i++ {
		ck.Advance(20 * time.Second)
		hb, err := c.Heartbeat(campsvc.HeartbeatRequest{Worker: "w1", LeaseID: l.ID})
		if err != nil {
			t.Fatal(err)
		}
		if hb.Lost {
			t.Fatalf("heartbeat %d lost a live lease", i)
		}
	}

	// Wrong worker cannot extend someone else's lease.
	hb, _ := c.Heartbeat(campsvc.HeartbeatRequest{Worker: "thief", LeaseID: l.ID})
	if !hb.Lost {
		t.Fatal("foreign heartbeat accepted")
	}

	// Stop beating: the lease expires and the next beat reports Lost.
	ck.Advance(31 * time.Second)
	hb, err = c.Heartbeat(campsvc.HeartbeatRequest{Worker: "w1", LeaseID: l.ID})
	if err != nil {
		t.Fatal(err)
	}
	if !hb.Lost {
		t.Fatal("heartbeat on an expired lease not reported lost")
	}
}

func TestPoisonCellQuarantine(t *testing.T) {
	ck := newClock()
	opts := testOpts(ck)
	opts.MaxAttempts = 2
	c, err := campsvc.NewCoordinator(svcConfig(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}

	l := mustLease(t, c, "w1")
	fr, err := c.Fail(campsvc.FailRequest{Worker: "w1", LeaseID: l.ID, Reason: "panic: boom"})
	if err != nil || fr.Quarantined {
		t.Fatalf("first failure quarantined early: %+v, %v", fr, err)
	}

	ck.Advance(2 * time.Second) // clear the backoff gate
	l2 := mustLease(t, c, "w2")
	if l2.Cell != l.Cell || l2.Attempt != 2 {
		t.Fatalf("re-grant = %+v, want the failed cell at attempt 2", l2)
	}
	fr, err = c.Fail(campsvc.FailRequest{Worker: "w2", LeaseID: l2.ID, Reason: "panic: boom"})
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Quarantined {
		t.Fatal("cell not quarantined at MaxAttempts")
	}

	st := c.Status()
	if st.Quarantined != 1 {
		t.Fatalf("status %+v, want 1 quarantined", st)
	}
	// The quarantine record is settled: late completions are duplicates.
	cr, err := c.Complete(campsvc.CompleteRequest{Worker: "w1", LeaseID: l.ID, Record: recFor(l.Cell)})
	if err != nil || !cr.Duplicate {
		t.Fatalf("completion of a quarantined cell = %+v, %v; want duplicate", cr, err)
	}
}

func TestQuarantineRecordInStore(t *testing.T) {
	ck := newClock()
	opts := testOpts(ck)
	opts.MaxAttempts = 1 // first failure quarantines
	store := campaign.NewMemStore(svcConfig())
	c, err := campsvc.NewCoordinator(svcConfig(), store, opts)
	if err != nil {
		t.Fatal(err)
	}
	l := mustLease(t, c, "w1")
	if _, err := c.Fail(campsvc.FailRequest{Worker: "w1", LeaseID: l.ID, Reason: "panic: boom\nstack..."}); err != nil {
		t.Fatal(err)
	}
	recs := store.Records()
	if len(recs) != 1 {
		t.Fatalf("store has %d records, want the quarantine record", len(recs))
	}
	q := recs[0]
	if !strings.HasPrefix(q.Outcome, "quarantined: ") || !q.Failed() {
		t.Fatalf("outcome = %q, want quarantined classification", q.Outcome)
	}
	if strings.Contains(q.Outcome, "stack...") {
		t.Fatalf("quarantine outcome swallowed a whole stack: %q", q.Outcome)
	}
	if q.Runs != 0 || q.FirstBug != -1 || len(q.Bugs) != 0 {
		t.Fatalf("quarantine record carries results: %+v", q)
	}
}

// Lease expiry counts as a failed attempt too: a cell that keeps
// crashing its workers (who never get to report) still quarantines.
func TestExpiryCountsTowardQuarantine(t *testing.T) {
	ck := newClock()
	opts := testOpts(ck)
	opts.MaxAttempts = 2
	c, err := campsvc.NewCoordinator(svcConfig(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	first := mustLease(t, c, "w1")
	ck.Advance(31 * time.Second) // w1 "crashed": lease expires
	c.Status()                   // reaping is lazy: notice the expiry now...
	ck.Advance(2 * time.Second)  // ...so this clears the backoff gate
	second := mustLease(t, c, "w2")
	if second.Cell != first.Cell || second.Attempt != 2 {
		t.Fatalf("re-grant = %+v, want expired cell at attempt 2", second)
	}
	ck.Advance(31 * time.Second) // w2 "crashed" too
	st := c.Status()
	if st.Quarantined != 1 {
		t.Fatalf("status %+v, want the double-expired cell quarantined", st)
	}
}

func TestWorkerEviction(t *testing.T) {
	ck := newClock()
	opts := testOpts(ck)
	opts.LeaseTTL = 30 * time.Second
	opts.EvictAfter = 45 * time.Second
	c, err := campsvc.NewCoordinator(svcConfig(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	l := mustLease(t, c, "quiet")
	// Keep the lease alive by heartbeating... then go fully silent.
	ck.Advance(20 * time.Second)
	if hb, _ := c.Heartbeat(campsvc.HeartbeatRequest{Worker: "quiet", LeaseID: l.ID}); hb.Lost {
		t.Fatal("live lease lost")
	}
	// 46s of silence: past EvictAfter but the lease deadline (extended
	// to +30s) would still have 4s left — eviction expires it early.
	ck.Advance(46 * time.Second)
	st := c.Status()
	var quiet *campsvc.WorkerStatus
	for i := range st.Workers {
		if st.Workers[i].Name == "quiet" {
			quiet = &st.Workers[i]
		}
	}
	if quiet == nil || !quiet.Evicted {
		t.Fatalf("silent worker not evicted: %+v", st.Workers)
	}
	if quiet.Leases != 0 {
		t.Fatalf("evicted worker still holds %d leases", quiet.Leases)
	}
	if st.Leased != 0 {
		t.Fatalf("status %+v, want the evicted worker's cell back in the queue", st)
	}
	_ = l
}

func TestResumeFromExistingStore(t *testing.T) {
	ck := newClock()
	cfg := svcConfig()
	store := campaign.NewMemStore(cfg)
	cells := campaign.Cells(cfg)
	// Pre-complete half the matrix, as if a previous coordinator run
	// was interrupted.
	store.Append(recFor(cells[0]))
	store.Append(recFor(cells[1]))

	c, err := campsvc.NewCoordinator(cfg, store, testOpts(ck))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Done != 2 || st.Pending != 2 {
		t.Fatalf("resumed status %+v, want 2 done / 2 pending", st)
	}
	for i := 0; i < 2; i++ {
		l := mustLease(t, c, "w1")
		if l.Cell == cells[0] || l.Cell == cells[1] {
			t.Fatalf("completed cell re-granted: %v", l.Cell)
		}
		if _, err := c.Complete(campsvc.CompleteRequest{Worker: "w1", LeaseID: l.ID, Record: recFor(l.Cell)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestCoordinatorDoneImmediately(t *testing.T) {
	ck := newClock()
	cfg := svcConfig()
	store := campaign.NewMemStore(cfg)
	for _, cell := range campaign.Cells(cfg) {
		store.Append(recFor(cell))
	}
	c, err := campsvc.NewCoordinator(cfg, store, testOpts(ck))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Lease(campsvc.LeaseRequest{Worker: "w1"})
	if err != nil || !resp.Done {
		t.Fatalf("lease on a complete campaign = %+v, %v; want done", resp, err)
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorRejectsMismatchedStore(t *testing.T) {
	other := svcConfig()
	other.Budget = 999
	store := campaign.NewMemStore(other)
	if _, err := campsvc.NewCoordinator(svcConfig(), store, testOpts(newClock())); err == nil {
		t.Fatal("coordinator accepted a store pinned to a different config")
	}
}

func TestStatusTables(t *testing.T) {
	ck := newClock()
	c, err := campsvc.NewCoordinator(svcConfig(), nil, testOpts(ck))
	if err != nil {
		t.Fatal(err)
	}
	mustLease(t, c, "w1")
	tables := c.Status().Tables()
	if len(tables) != 2 || tables[0].ID != "SVC" || tables[1].ID != "SVCW" {
		t.Fatalf("status tables = %v", tables)
	}
	if len(tables[1].Rows) != 1 {
		t.Fatalf("worker roster rows = %v", tables[1].Rows)
	}
}

// A completion that asks for its next lease gets exactly the grant a
// lease request would have made, and a retry of that completion (its
// response lost) gets the same grant back while it lives: no second
// lease, no extra attempt.
func TestCompleteCarriesNextLease(t *testing.T) {
	ck := newClock()
	c, err := campsvc.NewCoordinator(svcConfig(), nil, testOpts(ck))
	if err != nil {
		t.Fatal(err)
	}
	cells := campaign.Cells(svcConfig())
	l := mustLease(t, c, "w1")
	req := campsvc.CompleteRequest{Worker: "w1", LeaseID: l.ID, Record: recFor(l.Cell), Next: true}
	resp, err := c.Complete(req)
	if err != nil || resp.Duplicate || resp.Next == nil || resp.Next.Lease == nil {
		t.Fatalf("completion with Next = %+v, %v; want a grant", resp, err)
	}
	next := *resp.Next.Lease
	if next.Cell != cells[1] || next.Attempt != 1 || next.ConfigFingerprint != c.Config().Fingerprint() {
		t.Fatalf("carried grant %+v, want cell %v at attempt 1", next, cells[1])
	}

	ck.Advance(time.Second)
	retry, err := c.Complete(req)
	if err != nil || !retry.Duplicate || retry.Next == nil || retry.Next.Lease == nil {
		t.Fatalf("retried completion = %+v, %v; want a duplicate carrying the grant", retry, err)
	}
	if *retry.Next.Lease != next {
		t.Fatalf("retried completion granted %+v, want the same grant %+v", *retry.Next.Lease, next)
	}
	if st := c.Status(); st.Leased != 1 || st.Done != 1 {
		t.Fatalf("status after the retry %+v, want 1 leased / 1 done", st)
	}

	// Another worker's duplicate of the same cell gets a lease of its
	// own, not w1's.
	other, err := c.Complete(campsvc.CompleteRequest{Worker: "w2", LeaseID: l.ID, Record: recFor(l.Cell), Next: true})
	if err != nil || other.Next == nil || other.Next.Lease == nil || other.Next.Lease.Cell != cells[2] {
		t.Fatalf("other worker's duplicate = %+v, %v; want a grant of %v", other, err, cells[2])
	}

	// Once the carried grant is gone (expired here), a retry gets a
	// fresh grant; the expired cell comes back first, at attempt 2.
	ck.Advance(31 * time.Second)
	c.Status()
	ck.Advance(2 * time.Second)
	late, err := c.Complete(req)
	if err != nil || late.Next == nil || late.Next.Lease == nil {
		t.Fatalf("retry after expiry = %+v, %v", late, err)
	}
	if late.Next.Lease.ID == next.ID || late.Next.Lease.Cell != cells[1] || late.Next.Lease.Attempt != 2 {
		t.Fatalf("retry after expiry granted %+v, want a fresh grant of %v at attempt 2", *late.Next.Lease, cells[1])
	}

	// The last completion's Next says done.
	for _, rest := range []campsvc.Lease{*late.Next.Lease, *other.Next.Lease} {
		if _, err := c.Complete(campsvc.CompleteRequest{Worker: "w1", LeaseID: rest.ID, Record: recFor(rest.Cell)}); err != nil {
			t.Fatal(err)
		}
	}
	last := mustLease(t, c, "w1")
	done, err := c.Complete(campsvc.CompleteRequest{Worker: "w1", LeaseID: last.ID, Record: recFor(last.Cell), Next: true})
	if err != nil || done.Next == nil || !done.Next.Done {
		t.Fatalf("last completion = %+v, %v; want Next done", done, err)
	}
	if _, err := c.Complete(campsvc.CompleteRequest{Record: recFor(last.Cell), Next: true}); err == nil {
		t.Fatal("nameless completion asking for a lease accepted")
	}
}

// A requeued cell is granted before later cells again: the grant scan
// starts from the first cell that may be pending.
func TestRequeuedCellGrantedFirst(t *testing.T) {
	ck := newClock()
	c, err := campsvc.NewCoordinator(svcConfig(), nil, testOpts(ck))
	if err != nil {
		t.Fatal(err)
	}
	cells := campaign.Cells(svcConfig())
	first := mustLease(t, c, "w1")
	second := mustLease(t, c, "w1")
	if _, err := c.Complete(campsvc.CompleteRequest{Worker: "w1", LeaseID: second.ID, Record: recFor(second.Cell)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fail(campsvc.FailRequest{Worker: "w1", LeaseID: first.ID, Reason: "panic: boom"}); err != nil {
		t.Fatal(err)
	}
	if l := mustLease(t, c, "w1"); l.Cell != cells[2] {
		t.Fatalf("grant inside the backoff = %v, want %v", l.Cell, cells[2])
	}
	ck.Advance(2 * time.Second)
	if l := mustLease(t, c, "w1"); l.Cell != cells[0] || l.Attempt != 2 {
		t.Fatalf("grant after the backoff = %+v, want %v at attempt 2", l, cells[0])
	}
}

// A completion the store cannot write (a NaN wall time does not encode)
// is refused without changing anything: the cell keeps its lease, the
// store does not report it, the worker is not credited, and a good
// retry settles it so the campaign finishes.
func TestFailedAppendKeepsCellOpen(t *testing.T) {
	ck := newClock()
	cfg := svcConfig()
	store, err := campaign.Create(filepath.Join(t.TempDir(), "s.jsonl"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c, err := campsvc.NewCoordinator(cfg, store, testOpts(ck))
	if err != nil {
		t.Fatal(err)
	}
	l := mustLease(t, c, "w1")
	bad := recFor(l.Cell)
	bad.WallMS = math.NaN()
	if _, err := c.Complete(campsvc.CompleteRequest{Worker: "w1", LeaseID: l.ID, Record: bad, Next: true}); err == nil {
		t.Fatal("unwritable completion accepted")
	}
	if store.Has(l.Cell.Key()) {
		t.Fatal("store reports the refused record")
	}
	st := c.Status()
	if st.Leased != 1 || st.Done != 0 || len(st.Workers) != 1 || st.Workers[0].Leases != 1 || st.Workers[0].Completed != 0 {
		t.Fatalf("status after a refused completion %+v, want the cell still leased to w1", st)
	}

	resp, err := c.Complete(campsvc.CompleteRequest{Worker: "w1", LeaseID: l.ID, Record: recFor(l.Cell), Next: true})
	if err != nil || resp.Duplicate {
		t.Fatalf("good retry = %+v, %v", resp, err)
	}
	for resp.Next.Lease != nil {
		n := *resp.Next.Lease
		if resp, err = c.Complete(campsvc.CompleteRequest{Worker: "w1", LeaseID: n.ID, Record: recFor(n.Cell), Next: true}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st := c.Status(); st.Done != len(campaign.Cells(cfg)) || st.Workers[0].Completed != st.Done {
		t.Fatalf("final status %+v", st)
	}
}
