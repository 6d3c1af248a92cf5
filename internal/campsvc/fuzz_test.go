// FuzzCoordinator: the coordinator as a state machine under fuzzed call
// sequences on a fake clock, its invariants checked after every step.
// It lives inside the package because the invariants are about the
// coordinator's own state.
package campsvc

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mtbench/internal/campaign"
)

// FuzzCoordinator decodes its input as (op, arg) byte pairs: Lease,
// Complete with and without Next, a retry of the last completion that
// asked for a lease, Heartbeat, Fail, a clock advance of up to 64 s (past
// the lease TTL and the eviction limit), and a duplicate completion
// from another worker. After every step it checks that each cell is in
// exactly one phase, consistent with the lease table; that each settled
// cell has exactly one journal record; that attempts stay within
// MaxAttempts; that a retried completion never creates a second lease
// while the grant it already carried lives; and that a store rebuilt
// from the journal pre-settles exactly the settled cells.
func FuzzCoordinator(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400] // bound one input's work; longer adds nothing new
		}
		cfg := campaign.Config{
			Finders:  []string{"noise"},
			Programs: []string{"lockedcounter", "semleak"},
			Seeds:    []int64{0, 1},
			Budget:   10,
		}
		path := filepath.Join(t.TempDir(), "s.jsonl")
		store, err := campaign.Create(path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		now := time.Unix(1_000_000, 0)
		opts := CoordinatorOptions{
			LeaseTTL:    30 * time.Second,
			MaxAttempts: 3,
			RetryBase:   time.Second,
			RetryMax:    8 * time.Second,
			Now:         func() time.Time { return now },
		}
		c, err := NewCoordinator(cfg, store, opts)
		if err != nil {
			t.Fatal(err)
		}

		workers := []string{"w0", "w1", "w2"}
		var grants []Lease                // every grant seen, in order
		holder := map[string]string{}     // grant id -> worker
		carried := map[[2]string]string{} // (worker, completed lease) -> grant id
		var lastNext *CompleteRequest     // the last completion with Next
		record := func(resp LeaseResponse, worker string) {
			if resp.Lease != nil {
				grants = append(grants, *resp.Lease)
				holder[resp.Lease.ID] = worker
			}
		}
		complete := func(req CompleteRequest) {
			if req.Next {
				r := req
				lastNext = &r
			}
			// A grant this lease's completion already carried, still
			// live (the call's own reap expires it otherwise), must come
			// back instead of a new lease.
			key := [2]string{req.Worker, req.LeaseID}
			c.mu.Lock()
			want, live := carried[key], false
			if l := c.leases[want]; l != nil {
				live = l.deadline.After(now)
			}
			leases := len(c.leases)
			c.mu.Unlock()

			resp, err := c.Complete(req)
			if err != nil {
				t.Fatalf("Complete(%+v): %v", req, err)
			}
			if !req.Next {
				if resp.Next != nil {
					t.Fatalf("completion without Next carried %+v", resp.Next)
				}
				return
			}
			if resp.Next == nil {
				t.Fatalf("completion with Next carried nothing")
			}
			if live {
				if resp.Next.Lease == nil || resp.Next.Lease.ID != want {
					t.Fatalf("retried completion of %s carried %+v, want the live grant %s", req.LeaseID, resp.Next, want)
				}
				c.mu.Lock()
				grew := len(c.leases) != leases
				c.mu.Unlock()
				if grew {
					t.Fatalf("retried completion of %s created a second lease", req.LeaseID)
				}
				return
			}
			record(*resp.Next, req.Worker)
			if resp.Next.Lease != nil {
				carried[key] = resp.Next.Lease.ID
			}
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%8, int(ops[i+1])
			var g Lease
			if len(grants) > 0 {
				g = grants[arg%len(grants)]
			}
			switch {
			case op == 0:
				w := workers[arg%len(workers)]
				resp, err := c.Lease(LeaseRequest{Worker: w})
				if err != nil {
					t.Fatalf("Lease: %v", err)
				}
				record(resp, w)
			case op == 6:
				now = now.Add(time.Duration(arg) * 250 * time.Millisecond)
			case op == 3:
				if lastNext != nil {
					complete(*lastNext)
				}
			case g.ID == "":
				// The other calls need a grant to act on.
			case op == 1 || op == 2:
				complete(CompleteRequest{Worker: holder[g.ID], LeaseID: g.ID, Record: fuzzRecord(g.Cell), Next: op == 1})
			case op == 4:
				if _, err := c.Heartbeat(HeartbeatRequest{Worker: holder[g.ID], LeaseID: g.ID}); err != nil {
					t.Fatalf("Heartbeat: %v", err)
				}
			case op == 5:
				if _, err := c.Fail(FailRequest{Worker: holder[g.ID], LeaseID: g.ID, Reason: "panic: fuzz"}); err != nil {
					t.Fatalf("Fail: %v", err)
				}
			case op == 7:
				other := workers[(arg/len(grants)+1)%len(workers)]
				complete(CompleteRequest{Worker: other, LeaseID: g.ID, Record: fuzzRecord(g.Cell), Next: true})
			}
			checkCoordinator(t, c, cfg, path)
		}
	})
}

// fuzzRecord is a completion record for cell.
func fuzzRecord(cell campaign.Cell) campaign.Record {
	return campaign.Record{Program: cell.Program, Finder: cell.Finder,
		Seed: cell.Seed, Budget: cell.Budget, Runs: 1, Bugs: []string{}, FirstBug: -1}
}

// checkCoordinator asserts FuzzCoordinator's invariants.
func checkCoordinator(t *testing.T, c *Coordinator, cfg campaign.Config, path string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()

	settled := map[string]bool{}
	open := 0
	for _, e := range c.order {
		switch e.phase {
		case cellPending, cellLeased:
			open++
		case cellDone, cellQuarantined:
			settled[e.key] = true
		default:
			t.Fatalf("cell %s in unknown phase %d", e.key, e.phase)
		}
		if (e.phase == cellLeased) != (e.lease != nil) {
			t.Fatalf("cell %s in phase %d with lease %v", e.key, e.phase, e.lease)
		}
		if e.lease != nil && c.leases[e.lease.id] != e.lease {
			t.Fatalf("cell %s holds lease %s, which the lease table does not", e.key, e.lease.id)
		}
		if e.attempts > c.opts.MaxAttempts {
			t.Fatalf("cell %s at %d attempts, past MaxAttempts %d", e.key, e.attempts, c.opts.MaxAttempts)
		}
		if e.phase == cellPending && e.idx < c.cursor {
			t.Fatalf("pending cell %s (index %d) behind the grant cursor %d", e.key, e.idx, c.cursor)
		}
		if c.store.Has(e.key) != settled[e.key] {
			t.Fatalf("cell %s: store has it %v, settled %v", e.key, c.store.Has(e.key), settled[e.key])
		}
	}
	for id, l := range c.leases {
		if e := c.cells[l.key]; e.lease != l {
			t.Fatalf("lease %s names cell %s, which does not hold it", id, l.key)
		}
	}
	if open != c.open {
		t.Fatalf("%d cells open, coordinator counts %d", open, c.open)
	}

	// The journal: exactly one line per settled cell.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))[1:]
	seen := map[string]bool{}
	for _, line := range lines {
		var rec campaign.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if !settled[rec.Key()] || seen[rec.Key()] {
			t.Fatalf("journal record for %s: settled %v, already seen %v", rec.Key(), settled[rec.Key()], seen[rec.Key()])
		}
		seen[rec.Key()] = true
	}
	if len(seen) != len(settled) {
		t.Fatalf("journal holds %d records for %d settled cells", len(seen), len(settled))
	}

	// A coordinator over a store rebuilt from the journal pre-settles
	// exactly the settled cells.
	_, recs, err := campaign.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	reopened := campaign.NewMemStore(cfg)
	for _, rec := range recs {
		if err := reopened.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := NewCoordinator(cfg, reopened, CoordinatorOptions{Now: c.opts.Now})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range c2.order {
		if (e.phase == cellDone) != settled[e.key] {
			t.Fatalf("reopened store: cell %s pre-settled %v, settled %v", e.key, e.phase == cellDone, settled[e.key])
		}
	}
}
