// End-to-end over real HTTP: a coordinator behind httptest, a small
// worker fleet driving real finders, and the tentpole guarantee —
// the distributed store, compacted, is byte-identical to an
// in-process campaign.Run of the same fixed-seed config.
package campsvc_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
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
	c, total := runFleetWith(t, cfg, storePath, n, fleetHooks{})
	if total.Completed != len(campaign.Cells(cfg)) {
		t.Fatalf("fleet completed %d cells, want %d (stats %+v)", total.Completed, len(campaign.Cells(cfg)), total)
	}
	return c
}

// fleetHooks let a test watch or perturb a fleet's traffic; zero
// fields leave that layer as it is.
type fleetHooks struct {
	handler func(http.Handler) http.Handler           // wraps the coordinator's handler
	rt      http.RoundTripper                         // the workers' HTTP transport
	wrap    func(campsvc.Transport) campsvc.Transport // wraps each worker's Client
}

// fleetTTL is the lease TTL runFleet's coordinator grants.
const fleetTTL = 5 * time.Second

// runFleetWith is runFleet under hooks; it returns the workers' summed
// stats.
func runFleetWith(t *testing.T, cfg campaign.Config, storePath string, n int, hooks fleetHooks) (*campsvc.Coordinator, campsvc.WorkerStats) {
	t.Helper()
	store, err := campaign.Create(storePath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	c, err := campsvc.NewCoordinator(cfg, store, campsvc.CoordinatorOptions{
		LeaseTTL: fleetTTL,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = campsvc.Handler(c)
	if hooks.handler != nil {
		h = hooks.handler(h)
	}
	srv := httptest.NewServer(h)
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
			var tp campsvc.Transport = &campsvc.Client{Base: srv.URL}
			if hooks.rt != nil {
				tp = &campsvc.Client{Base: srv.URL, HTTP: &http.Client{Transport: hooks.rt, Timeout: 30 * time.Second}}
			}
			if hooks.wrap != nil {
				tp = hooks.wrap(tp)
			}
			stats[i], errs[i] = campsvc.Work(ctx, campsvc.WorkerOptions{
				Name:      string(rune('a' + i)),
				Transport: tp,
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
	var total campsvc.WorkerStats
	for _, s := range stats {
		total.Completed += s.Completed
		total.Duplicates += s.Duplicates
		total.Failures += s.Failures
		total.Abandoned += s.Abandoned
	}
	return c, total
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

// grantWatch wraps a worker's transport and tallies what its leases
// answered: empty grants, and the highest attempt any grant carried.
type grantWatch struct {
	campsvc.Transport
	empty, maxAttempt *atomic.Int64
}

func (g grantWatch) Lease(ctx context.Context, req campsvc.LeaseRequest) (campsvc.LeaseResponse, error) {
	resp, err := g.Transport.Lease(ctx, req)
	switch {
	case err != nil:
	case resp.Lease != nil:
		for {
			old := g.maxAttempt.Load()
			if int64(resp.Lease.Attempt) <= old || g.maxAttempt.CompareAndSwap(old, int64(resp.Lease.Attempt)) {
				break
			}
		}
	case !resp.Done:
		g.empty.Add(1)
	}
	return resp, err
}

// TestHTTPFleetOneRoundTripPerCell: completions carry the next grant,
// so a fleet sends a lease request only to start and after an empty
// grant, and its store still equals the in-process run.
func TestHTTPFleetOneRoundTripPerCell(t *testing.T) {
	cfg := fleetConfig()
	path := filepath.Join(t.TempDir(), "dist.jsonl")
	var leases, completes, empty, maxAttempt atomic.Int64
	const workers = 2
	_, total := runFleetWith(t, cfg, path, workers, fleetHooks{
		handler: func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/v1/lease":
					leases.Add(1)
				case "/v1/complete":
					completes.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		},
		wrap: func(tp campsvc.Transport) campsvc.Transport {
			return grantWatch{Transport: tp, empty: &empty, maxAttempt: &maxAttempt}
		},
	})
	if got, limit := leases.Load(), workers+empty.Load(); got > limit {
		t.Fatalf("fleet sent %d lease requests, want at most %d (workers + %d empty grants)", got, limit, empty.Load())
	}
	if got, want := completes.Load(), int64(len(campaign.Cells(cfg))); got != want || total.Completed != int(want) {
		t.Fatalf("fleet sent %d completions for %d cells (stats %+v)", got, want, total)
	}
	assertStoreParity(t, cfg, path)
}

// loseEveryNth is a RoundTripper that delivers every nth request to
// path, lets the server process it, and then loses its response.
type loseEveryNth struct {
	path string
	n    int64
	seen atomic.Int64
	lost atomic.Int64
}

func (l *loseEveryNth) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || r.URL.Path != l.path || l.seen.Add(1)%l.n != 0 {
		return resp, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	l.lost.Add(1)
	return nil, errors.New("test: response lost")
}

// TestHTTPFleetLostCompleteResponses: when a completion's response is
// lost after the coordinator processed it, the retry gets back the
// grant the lost response carried. So no lease is orphaned: every cell
// settles on its first attempt and the campaign never waits out a
// lease TTL.
func TestHTTPFleetLostCompleteResponses(t *testing.T) {
	cfg := fleetConfig()
	cfg.Seeds = []int64{0, 1, 2, 3, 4, 5, 6, 7}
	path := filepath.Join(t.TempDir(), "dist.jsonl")
	rt := &loseEveryNth{path: "/v1/complete", n: 7}
	var empty, maxAttempt atomic.Int64
	start := time.Now()
	_, total := runFleetWith(t, cfg, path, 2, fleetHooks{
		rt: rt,
		wrap: func(tp campsvc.Transport) campsvc.Transport {
			return grantWatch{Transport: tp, empty: &empty, maxAttempt: &maxAttempt}
		},
	})
	elapsed := time.Since(start)
	if rt.lost.Load() == 0 {
		t.Fatal("no completion response was lost; the test checked nothing")
	}
	// Each cell is acknowledged once: as a duplicate when its first
	// completion's response was lost (a retry can be lost too).
	if lost := int64(total.Duplicates); total.Completed+total.Duplicates != len(campaign.Cells(cfg)) || lost < 1 || lost > rt.lost.Load() {
		t.Fatalf("stats %+v after %d lost responses, want %d acknowledgements, a duplicate per cell whose response was lost",
			total, rt.lost.Load(), len(campaign.Cells(cfg)))
	}
	if got := maxAttempt.Load(); got != 1 {
		t.Fatalf("a cell was granted at attempt %d after %d lost responses, want every cell at attempt 1", got, rt.lost.Load())
	}
	if elapsed >= fleetTTL {
		t.Fatalf("campaign took %s, past the %s lease TTL: a lease was orphaned", elapsed, fleetTTL)
	}
	assertStoreParity(t, cfg, path)
}
