// End-to-end over real HTTP: a coordinator behind httptest, a small
// worker fleet driving real finders, and the tentpole guarantee —
// the distributed store, compacted, is byte-identical to an
// in-process campaign.Run of the same fixed-seed config.
package campsvc_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"mtbench/internal/campaign"
	"mtbench/internal/campsvc"
)

// fleetConfig is a small real-finder matrix: 2 finders × 2 programs.
func fleetConfig() campaign.Config {
	return campaign.Config{
		Finders:  []string{"fuzz", "noise"},
		Programs: []string{"lockedcounter", "semleak"},
		Seeds:    []int64{0},
		Budget:   40,
	}
}

// runFleet serves cfg over HTTP into storePath and drives n workers
// to completion. Returns the coordinator for post-hoc assertions.
func runFleet(t *testing.T, cfg campaign.Config, storePath string, n int) *campsvc.Coordinator {
	t.Helper()
	store, err := campaign.Create(storePath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	c, err := campsvc.NewCoordinator(cfg, store, campsvc.CoordinatorOptions{
		LeaseTTL: 5 * time.Second,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(campsvc.Handler(c))
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	stats := make([]campsvc.WorkerStats, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = campsvc.Work(ctx, campsvc.WorkerOptions{
				Name:      string(rune('a' + i)),
				Transport: &campsvc.Client{Base: srv.URL},
				Backoff:   20 * time.Millisecond,
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("coordinator Wait: %v", err)
	}
	var completed int
	for _, s := range stats {
		completed += s.Completed
	}
	if completed != len(campaign.Cells(cfg)) {
		t.Fatalf("fleet completed %d cells, want %d (stats %+v)", completed, len(campaign.Cells(cfg)), stats)
	}
	return c
}

func TestHTTPFleetMatchesInProcessRun(t *testing.T) {
	cfg := fleetConfig()
	dir := t.TempDir()
	distPath := filepath.Join(dir, "dist.jsonl")
	localPath := filepath.Join(dir, "local.jsonl")

	runFleet(t, cfg, distPath, 2)

	localStore, err := campaign.Create(localPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Run(context.Background(), cfg, localStore, nil); err != nil {
		t.Fatal(err)
	}
	localStore.Close()

	dist, err := os.ReadFile(distPath)
	if err != nil {
		t.Fatal(err)
	}
	local, err := os.ReadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dist, local) {
		t.Fatalf("distributed store differs from in-process run:\n--- distributed ---\n%s--- local ---\n%s", dist, local)
	}
}

// TestHTTPFleetCarriesCounters: a finder's engine counters reach the
// coordinator's store through the lease protocol unchanged.
func TestHTTPFleetCarriesCounters(t *testing.T) {
	cfg := campaign.Config{
		Finders:  []string{"explore-vb"},
		Programs: []string{"semleak"},
		Seeds:    []int64{0},
		Budget:   40,
	}
	path := filepath.Join(t.TempDir(), "dist.jsonl")
	runFleet(t, cfg, path, 1)
	_, recs, err := campaign.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.ExecCell(context.Background(), cfg, campaign.Cells(cfg)[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || want.Counters["exhausted"] != 1 || !reflect.DeepEqual(recs[0].Counters, want.Counters) {
		t.Fatalf("stored records %+v, want one with counters %v (exhausted)", recs, want.Counters)
	}
}

func TestHTTPStatusAndConfigEndpoints(t *testing.T) {
	cfg := fleetConfig()
	store := campaign.NewMemStore(cfg)
	c, err := campsvc.NewCoordinator(cfg, store, campsvc.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(campsvc.Handler(c))
	defer srv.Close()
	client := &campsvc.Client{Base: srv.URL}

	got, err := client.Config(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != c.Config().Fingerprint() {
		t.Fatalf("config over HTTP lost its fingerprint:\n%s\n%s", got.Fingerprint(), c.Config().Fingerprint())
	}

	st, err := client.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != len(campaign.Cells(cfg)) || st.Pending != st.Cells {
		t.Fatalf("status over HTTP = %+v", st)
	}

	// Protocol rejections surface as permanent errors, not retries.
	_, err = client.Lease(context.Background(), campsvc.LeaseRequest{})
	if err == nil || !campsvc.IsPermanent(err) {
		t.Fatalf("nameless lease over HTTP = %v, want a permanent error", err)
	}
}
