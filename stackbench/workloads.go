package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"mtbench/internal/campaign"
	"mtbench/internal/campsvc"
	"mtbench/internal/core"
	"mtbench/internal/explore"
	"mtbench/internal/repository"
)

// workload is one named closed-loop input: set-up builds it from the
// seed and learns what correct output looks like, and each round is a
// fixed amount of work run to completion before the next starts.
type workload struct {
	name  string
	why   string
	round string // the fixed work of one round
	setup func(seed int64) (bench, error)
}

// bench is a set-up workload.
type bench interface {
	// round runs the i-th round, checking every output; tr, when
	// non-nil, records spans.
	round(i int, tr *tracer) roundResult
	close()
}

// roundResult counts one round's checked operations.
type roundResult struct {
	attempted int
	fails     []string
}

func (r *roundResult) op(fail string) {
	r.attempted++
	if fail != "" {
		r.fails = append(r.fails, fail)
	}
}

var workloads = []*workload{
	{
		name:  "exhaust-short",
		why:   "DPOR+state-cache exhaustion of short traces (20-120 steps) at 1 and 2 workers: per-schedule costs dominate (positioning, runner reset, cache, handoffs)",
		round: "8 exhaustions: 4 programs at 1 worker, then at 2 (or 2 then 1)",
		setup: setupExhaust,
	},
	{
		name:  "long-trace",
		why:   "spin loops run to a 10,000-step bound under plain DFS and DPOR: per-step costs dominate (continue step, DPOR walk-back, state hashing), the opposite mix",
		round: "4 searches, about 7.7M scheduler steps",
		setup: setupLong,
	},
	{
		name:  "hunt",
		why:   "fuzz, pct, noise and race through campaign.Run on full-size programs: mutation, replay, coverage, priorities, race detection; no DFS and no service layer",
		round: "24 cells of 1,000 finder runs each",
		setup: setupHunt,
	},
	{
		name:  "fleet",
		why:   "many ~1 ms gate-matrix cells through campsvc over loopback HTTP, two workers, fsync'd store: lease, HTTP, JSON, fsync and compaction costs show",
		round: "one 560-cell distributed campaign",
		setup: setupFleet,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// shuffled returns a seeded permutation of xs: op order varies with the
// seed, the ops themselves do not.
func shuffled(rng *rand.Rand, xs []*search) []*search {
	out := slices.Clone(xs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// exhaust-short: the four programs of the explore-por finder's reduced
// exhaustion, each at 1 and at 2 workers. A round is one pass at each
// worker count, the two passes alternating which goes first.

var exhaustPrograms = []struct {
	prog, label string
	params      repository.Params
}{
	{"philosophers", "philosophers{3,1}", repository.Params{"philosophers": 3, "rounds": 1}},
	{"account", "account{3,1}", repository.Params{"depositors": 3, "deposits": 1}},
	{"account", "account{2,2}", repository.Params{"depositors": 2, "deposits": 2}},
	{"statmax", "statmax{3}", repository.Params{"reporters": 3}},
}

// exhaustBudget is far above any reduced tree here; a search that
// reaches it fails the exhaustion check.
const exhaustBudget = 1_000_000

type exhaustBench struct {
	w1, w2 []*search
	rng    *rand.Rand
}

func setupExhaust(seed int64) (bench, error) {
	b := &exhaustBench{rng: rand.New(rand.NewSource(seed))}
	for _, workers := range []int{1, 2} {
		for _, p := range exhaustPrograms {
			s, err := newSearch(p.prog, p.params, fmt.Sprintf("%s/w%d", p.label, workers), explore.Options{
				MaxSchedules: exhaustBudget, Workers: workers, DPOR: true, StateCache: true,
			})
			if err != nil {
				return nil, err
			}
			s.exhaust = true
			if err := s.learn(); err != nil {
				return nil, err
			}
			if workers == 1 {
				b.w1 = append(b.w1, s)
			} else {
				b.w2 = append(b.w2, s)
			}
		}
	}
	for i, s := range b.w2 {
		if s.bugs != b.w1[i].bugs {
			return nil, fmt.Errorf("%s: bug set %q differs from the serial search's %q", s.label, s.bugs, b.w1[i].bugs)
		}
	}
	return b, nil
}

func (b *exhaustBench) round(i int, tr *tracer) roundResult {
	var r roundResult
	root := tr.begin(0, "bench", "round", "exhaust-short")
	defer tr.end(root)
	passes := [][]*search{b.w1, b.w2}
	if i%2 == 1 {
		passes[0], passes[1] = passes[1], passes[0]
	}
	for _, pass := range passes {
		for _, s := range shuffled(b.rng, pass) {
			_, _, fail := s.run(tr, root)
			r.op(fail)
		}
	}
	return r
}

func (b *exhaustBench) close() {}

// long-trace: two programs whose spin loops run to the step bound, each
// under plain DFS and under DPOR with the state cache, on fixed
// schedule budgets that the trees are far too large to exhaust.

const (
	longMaxSteps    = 10_000
	longPlainBudget = 400
	longPORBudget   = 40
)

type longBench struct {
	searches []*search
	rng      *rand.Rand
}

func setupLong(seed int64) (bench, error) {
	b := &longBench{rng: rand.New(rand.NewSource(seed))}
	for _, prog := range []string{"adhocsync", "livelock"} {
		for _, por := range []bool{false, true} {
			label, budget := prog+"/plain", longPlainBudget
			if por {
				label, budget = prog+"/por", longPORBudget
			}
			s, err := newSearch(prog, nil, label, explore.Options{
				MaxSchedules: budget, MaxSteps: longMaxSteps, Workers: 1, DPOR: por, StateCache: por,
			})
			if err != nil {
				return nil, err
			}
			s.schedules = budget
			if err := s.learn(); err != nil {
				return nil, err
			}
			b.searches = append(b.searches, s)
		}
	}
	return b, nil
}

func (b *longBench) round(i int, tr *tracer) roundResult {
	var r roundResult
	root := tr.begin(0, "bench", "round", "long-trace")
	defer tr.end(root)
	for _, s := range shuffled(b.rng, b.searches) {
		_, _, fail := s.run(tr, root)
		r.op(fail)
	}
	return r
}

func (b *longBench) close() {}

// hunt: the randomized finders over six bug programs at full size, one
// campaign seed per round.

var (
	huntFinders  = []string{"fuzz", "noise", "pct", "race"}
	huntPrograms = []string{"abastack", "account", "bankwithdraw", "philosophers", "semleak", "statmax"}
)

const huntBudget = 1000

type huntBench struct{ seed int64 }

func setupHunt(seed int64) (bench, error) {
	b := &huntBench{seed: seed}
	// Warm-up: every cell of the matrix once at a small budget, so
	// finder state, program registries and runner pools are warm.
	cfg := b.config(-1)
	cfg.Budget = 50
	sum, err := campaign.Run(context.Background(), cfg, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("hunt warm-up: %w", err)
	}
	for _, rec := range sum.Records {
		if rec.Failed() {
			return nil, fmt.Errorf("hunt warm-up: %s: %s", rec.Key(), rec.Outcome)
		}
	}
	return b, nil
}

func (b *huntBench) config(i int) campaign.Config {
	return campaign.Config{
		Finders:  huntFinders,
		Programs: huntPrograms,
		Seeds:    []int64{core.MixSeed(b.seed, int64(i))},
		Budget:   huntBudget,
		Params:   map[string]map[string]int{}, // full-size programs
		Workers:  1,
	}
}

// cells runs round i's campaign. Cells run one at a time, so the time
// between Progress callbacks is each cell's wall time; traced runs
// record it as a span per cell under the campaign.Run span.
func (b *huntBench) cells(i int, tr *tracer, parent int64) ([]campaign.Record, []time.Duration, error) {
	var (
		recs  []campaign.Record
		walls []time.Duration
	)
	id := tr.begin(parent, "campaign", "campaign.Run", "hunt")
	last := time.Now()
	_, err := campaign.Run(context.Background(), b.config(i), nil, func(_, _ int, rec campaign.Record) {
		now := time.Now()
		tr.add(id, rec.Finder, "finder.cell", rec.Program+"/"+rec.Finder, last, now)
		recs = append(recs, rec)
		walls = append(walls, now.Sub(last))
		last = now
	})
	tr.end(id)
	return recs, walls, err
}

func (b *huntBench) round(i int, tr *tracer) roundResult {
	var r roundResult
	root := tr.begin(0, "bench", "round", "hunt")
	defer tr.end(root)
	recs, _, err := b.cells(i, tr, root)
	if err != nil {
		r.op(fmt.Sprintf("hunt round %d: %v", i, err))
		return r
	}
	if want := len(huntFinders) * len(huntPrograms); len(recs) != want {
		r.op(fmt.Sprintf("hunt round %d: %d cells, want %d", i, len(recs), want))
	}
	for _, rec := range recs {
		fail := ""
		if rec.Failed() {
			fail = fmt.Sprintf("hunt round %d: %s: %s", i, rec.Key(), firstLine(rec.Outcome))
		}
		r.op(fail)
	}
	return r
}

func (b *huntBench) close() {}

// fleet: the gate matrix through a fresh coordinator per round, on an
// fsync'd file store, served over loopback HTTP to two in-process
// workers; every compacted store must equal the in-process reference.

const (
	fleetSeeds   = 10
	fleetBudget  = 50
	fleetTimeout = time.Minute // a campaign that takes this long has hung
)

type fleetBench struct {
	cfg   campaign.Config
	cells int
	dir   string
	ref   []byte // the in-process store every distributed store must equal
}

func setupFleet(seed int64) (bench, error) {
	dir, err := os.MkdirTemp("", "stackbench-fleet-")
	if err != nil {
		return nil, err
	}
	cfg := campaign.Config{Budget: fleetBudget}
	for s := int64(0); s < fleetSeeds; s++ {
		cfg.Seeds = append(cfg.Seeds, seed+s)
	}
	b := &fleetBench{cfg: cfg, cells: len(campaign.Cells(cfg)), dir: dir}
	ref, _, err := b.inProcess(nil, 0)
	if err != nil {
		b.close()
		return nil, err
	}
	b.ref = ref
	return b, nil
}

func (b *fleetBench) close() { os.RemoveAll(b.dir) }

// inProcess runs the campaign with campaign.Run at two workers and
// returns the compacted store and the run's wall time.
func (b *fleetBench) inProcess(tr *tracer, parent int64) ([]byte, time.Duration, error) {
	path := filepath.Join(b.dir, "inproc.jsonl")
	defer os.Remove(path)
	id := tr.begin(parent, "campaign", "campaign.Run", "fleet/inproc")
	start := time.Now()
	store, err := campaign.Create(path, b.cfg)
	if err != nil {
		return nil, 0, err
	}
	cfg := b.cfg
	cfg.Workers = 2
	_, err = campaign.Run(context.Background(), cfg, store, nil)
	wall := time.Since(start)
	tr.end(id)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, fmt.Errorf("fleet in-process run: %w", err)
	}
	data, err := os.ReadFile(path)
	return data, wall, err
}

// fleetRun is what one distributed campaign reports.
type fleetRun struct {
	wall        time.Duration // coordinator built until Wait returned
	drain       time.Duration // Done until both workers returned on their own
	emptyGrants int
	fail        string
}

func (b *fleetBench) round(i int, tr *tracer) roundResult {
	var r roundResult
	root := tr.begin(0, "bench", "round", "fleet")
	defer tr.end(root)
	fr := b.distributed(i, tr, root, 0)
	r.op(fr.fail)
	return r
}

// distributed runs one campaign through campsvc. With a positive
// drainCap it lets the workers notice the campaign is done by themselves,
// for at most drainCap, and reports how long that took; otherwise it
// cancels them as soon as Wait returns.
func (b *fleetBench) distributed(i int, tr *tracer, parent int64, drainCap time.Duration) (fr fleetRun) {
	path := filepath.Join(b.dir, fmt.Sprintf("fleet-%d.jsonl", i))
	defer os.Remove(path)
	fail := func(format string, args ...any) fleetRun {
		fr.fail = fmt.Sprintf("fleet round %d: ", i) + fmt.Sprintf(format, args...)
		return fr
	}

	start := time.Now()
	id := tr.begin(parent, "campsvc", "campsvc.NewCoordinator", "fleet")
	store, err := campaign.Create(path, b.cfg)
	if err != nil {
		return fail("%v", err)
	}
	defer store.Close()
	coord, err := campsvc.NewCoordinator(b.cfg, store, campsvc.CoordinatorOptions{})
	tr.end(id)
	if err != nil {
		return fail("%v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("%v", err)
	}
	srv := &http.Server{Handler: campsvc.Handler(coord)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}
	defer func() {
		srv.Close()
		<-served
		hc.CloseIdleConnections()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		wg     sync.WaitGroup
		errs   [2]error
		timers [2]*timedTransport
	)
	for w := range errs {
		name := fmt.Sprintf("w%d", w)
		var tp campsvc.Transport = &campsvc.Client{Base: "http://" + ln.Addr().String(), HTTP: hc}
		if tr != nil {
			timers[w] = &timedTransport{Transport: tp, tr: tr, parent: parent, worker: name}
			tp = timers[w]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[w] = campsvc.Work(ctx, campsvc.WorkerOptions{Name: name, Transport: tp})
		}()
	}
	waitCtx, waitCancel := context.WithTimeout(context.Background(), fleetTimeout)
	defer waitCancel()
	werr := coord.Wait(waitCtx)
	fr.wall = time.Since(start)
	if drainCap > 0 {
		returned := make(chan struct{})
		go func() {
			wg.Wait()
			close(returned)
		}()
		capped := time.NewTimer(drainCap)
		select {
		case <-returned:
		case <-capped.C:
		}
		capped.Stop()
		fr.drain = time.Since(start) - fr.wall
	}
	cancel()
	wg.Wait()
	for _, t := range timers {
		if t != nil {
			fr.emptyGrants += t.empty
		}
	}

	if werr != nil {
		return fail("coordinator: %v", werr)
	}
	for w, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return fail("worker w%d: %v", w, err)
		}
	}
	if err := store.Close(); err != nil {
		return fail("%v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fail("%v", err)
	}
	if !bytes.Equal(data, b.ref) {
		return fail("compacted store differs from the in-process reference (%d vs %d bytes)", len(data), len(b.ref))
	}
	return fr
}

// timedTransport wraps a worker's transport in the traced run: a span
// per Lease and Complete round trip, a span from each granted lease to
// its Complete call (the cell's execution), and a count of empty grants.
type timedTransport struct {
	campsvc.Transport
	tr     *tracer
	parent int64
	worker string
	exec   int64 // the open execution span
	empty  int   // lease answers with neither a lease nor Done
}

func (t *timedTransport) Lease(ctx context.Context, req campsvc.LeaseRequest) (campsvc.LeaseResponse, error) {
	id := t.tr.begin(t.parent, "campsvc", "Client.Lease", t.worker)
	resp, err := t.Transport.Lease(ctx, req)
	t.tr.end(id)
	switch {
	case err != nil:
	case resp.Lease != nil:
		t.exec = t.tr.begin(t.parent, "campaign", "campaign.ExecCell", resp.Lease.Cell.Key())
	case !resp.Done:
		t.empty++
	}
	return resp, err
}

func (t *timedTransport) Complete(ctx context.Context, req campsvc.CompleteRequest) (campsvc.CompleteResponse, error) {
	t.tr.end(t.exec)
	t.exec = 0
	id := t.tr.begin(t.parent, "campsvc", "Client.Complete", t.worker)
	defer t.tr.end(id)
	return t.Transport.Complete(ctx, req)
}

// firstLine cuts a multi-line outcome (panic records carry stacks).
func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
