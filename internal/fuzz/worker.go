// The fuzzing coordinator: corpus seeding, the parallel worker pool,
// and the merge layer. The budget and merge idioms mirror
// internal/explore/parallel.go — MaxRuns is reserved run-by-run from a
// shared counter so the global budget never overruns, StopAtFirstBug
// winds every worker down after its in-flight run, and bugs
// deduplicate globally by core.BugSignature.
//
// Unlike exploration there is no work queue: fuzzing's shared state is
// the corpus plus the cumulative coverage set, and every worker runs
// the same pick → mutate → execute → merge loop against them. Each
// worker owns a seeded rng derived from (Options.Seed, worker index),
// so a single worker is fully deterministic and N workers differ only
// in how their deterministic streams interleave on the shared corpus.
//
// Each worker also owns its run machinery — a pooled sched.Runner, a
// per-run coverage tracker that is reset between runs and batch-merged
// into the cumulative tracker once per run (coverage.Tracker.Merge),
// and a reusable guided strategy whose rng is reseeded per candidate —
// so the steady-state loop executes schedules without reallocating any
// of it and the cumulative tracker's mutex never appears on the
// per-event path. Reuse is invisible to results: Workers: 1 with a
// fixed seed remains byte-identical (TestFuzzGolden).
package fuzz

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"mtbench/internal/core"
	"mtbench/internal/coverage"
	"mtbench/internal/sched"
)

type coordinator struct {
	opts Options
	body func(core.T)

	// global accumulates coverage over every run; its contended
	// variables feed the variable-bias mutator's targets. Workers write
	// it through per-worker shards, so the only lock on the per-event
	// path is the worker's own.
	global *coverage.Tracker

	// mu guards the corpus, the covered-task set and the campaign
	// statistics.
	mu           sync.Mutex
	corp         *corpus
	coveredTasks map[coverage.TaskKey]bool
	coveredOuts  map[outcomeKey]bool
	coverageRuns int
	repairs      int64
	ops          map[string]int

	// reserved hands out run-budget slots; executed counts runs
	// actually performed (Result.Runs and core.Bug.Index).
	reserved atomic.Int64
	executed atomic.Int64
	stopping atomic.Bool

	// resMu guards the merged bug set.
	resMu sync.Mutex
	bugs  core.BugLog
}

func newCoordinator(opts Options, body func(core.T)) *coordinator {
	return &coordinator{
		opts:         opts,
		body:         body,
		global:       coverage.NewTracker(),
		corp:         newCorpus(opts.MaxCorpus),
		coveredTasks: map[coverage.TaskKey]bool{},
		coveredOuts:  map[outcomeKey]bool{},
		ops:          map[string]int{},
	}
}

// outcomeKey is a run's outcome class, one of the coverage signature's
// parts: its verdict and its program-reported outcome.
type outcomeKey struct {
	verdict core.Verdict
	outcome string
}

// workerState is one worker's reusable execution machinery.
type workerState struct {
	runner *sched.Runner
	// perRun measures one run's coverage signature; Reset clears it in
	// place between runs, and a per-run Merge folds it into the
	// cumulative tracker — so the only listener on the event path is
	// the worker's own, and the global tracker's mutex is taken once
	// per run instead of once per event.
	perRun *coverage.Tracker
	// g is the reusable guided strategy; grng is its rng, reseeded
	// per candidate (core.NewRand's reseed is O(1), and its stream
	// equals a freshly constructed one's).
	g    guided
	grng *rand.Rand

	listeners []core.Listener
	keys      []coverage.TaskKey
	varBuf    []uint32
	targets   map[uint32]bool
}

func (c *coordinator) newWorkerState() *workerState {
	ws := &workerState{
		runner:  sched.NewRunner(),
		perRun:  coverage.NewTracker(),
		grng:    core.NewRand(0),
		targets: map[uint32]bool{},
	}
	return ws
}

// mix derives a stream seed from the master seed and a stream index,
// so workers and phases get decorrelated but reproducible rngs. It is
// the shared core.MixSeed derivation (the campaign finders use the
// same one, which keeps per-run seeds comparable across tools).
func mix(seed, stream int64) int64 { return core.MixSeed(seed, stream) }

// run executes the campaign: seed the corpus, run the worker pool to
// budget exhaustion (or global stop), merge.
func (c *coordinator) run() *Result {
	if ctx := c.opts.Context; ctx != nil {
		unhook := context.AfterFunc(ctx, func() { c.stopping.Store(true) })
		defer unhook()
	}
	seedWS := c.newWorkerState()
	c.seedCorpus(seedWS)
	seedWS.runner.Close()

	var wg sync.WaitGroup
	for w := 0; w < c.opts.Workers; w++ {
		rng := core.NewRand(mix(c.opts.Seed, int64(w)+1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := c.newWorkerState()
			defer ws.runner.Close()
			c.fuzzLoop(ws, rng)
		}()
	}
	wg.Wait()

	c.mu.Lock()
	res := &Result{
		Runs:         int(c.executed.Load()),
		CorpusSize:   len(c.corp.entries),
		Coverage:     len(c.coveredTasks) + len(c.coveredOuts),
		CoverageRuns: c.coverageRuns,
		Repairs:      c.repairs,
		Ops:          c.ops,
	}
	c.mu.Unlock()
	c.resMu.Lock()
	res.BugLog = c.bugs
	c.resMu.Unlock()
	return res
}

// seedCorpus primes the search before any mutation: the nonpreemptive
// baseline schedule (always corpus entry 0) plus a few seeded random
// walks, all charged against MaxRuns and merged like any other run.
func (c *coordinator) seedCorpus(ws *workerState) {
	for i := 0; i < seedRuns; i++ {
		if c.stopping.Load() || c.reserved.Add(1) > int64(c.opts.MaxRuns) {
			return
		}
		g := &guided{rng: core.NewRand(mix(c.opts.Seed, -int64(i)-1))}
		var st sched.Strategy = g
		if i == 0 {
			st = sched.Nonpreemptive()
			g = nil
		}
		c.executeAndMerge(ws, st, g, "seed")
	}
}

// fuzzLoop is one worker: reserve budget, pick a base and an operator,
// mutate, execute, merge — until the budget or a global stop ends the
// campaign.
func (c *coordinator) fuzzLoop(ws *workerState, rng *rand.Rand) {
	for {
		if c.stopping.Load() {
			return
		}
		if c.reserved.Add(1) > int64(c.opts.MaxRuns) {
			return
		}

		c.mu.Lock()
		base := c.corp.pick(rng)
		donor := c.corp.pick(rng)
		targets := c.fillTargets(ws)
		c.mu.Unlock()
		if base == nil {
			return // seeding found nothing to build on (empty budget)
		}

		m := mutators[rng.Intn(len(mutators))]
		candidate := m.fn(rng, base, donor, &c.opts)
		// Reuse the worker's guided strategy: reseeding its rng yields
		// the same stream a freshly built core.NewRand(n) would, so
		// reuse is invisible to the campaign's determinism.
		g := &ws.g
		ws.grng.Seed(rng.Int63())
		*g = guided{decisions: candidate, rng: ws.grng, targets: targets, hot: g.hot[:0]}
		c.executeAndMerge(ws, g, g, m.name)
	}
}

// fillTargets refreshes the worker's contended-variable set for
// hot-position tracking, returning nil when nothing is contended yet.
// Caller holds c.mu (the read itself locks the tracker and shards).
func (c *coordinator) fillTargets(ws *workerState) map[uint32]bool {
	ws.varBuf = c.global.AppendContendedVarIDs(ws.varBuf[:0])
	if len(ws.varBuf) == 0 {
		return nil
	}
	clear(ws.targets)
	for _, v := range ws.varBuf {
		ws.targets[v] = true
	}
	return ws.targets
}

// executeAndMerge performs one controlled run under st and merges its
// coverage, corpus and bug contributions. g carries the guided
// strategy's repair count and hot positions (nil for the baseline
// seed).
func (c *coordinator) executeAndMerge(ws *workerState, st sched.Strategy, g *guided, op string) {
	ws.perRun.Reset()
	ws.listeners = append(ws.listeners[:0], core.Listener(ws.perRun))
	ws.listeners = append(ws.listeners, c.opts.Listeners...)

	// Start's Result is the runner's pooled one: read here, cloned
	// where kept (the corpus schedule; recordBug's log deep-copies).
	res := ws.runner.Start(sched.Config{
		Strategy:       st,
		Listeners:      ws.listeners,
		MaxSteps:       c.opts.MaxSteps,
		Name:           c.opts.Name,
		Seed:           c.opts.Seed,
		Plan:           c.opts.Plan,
		RecordSchedule: true,
		SkipTiming:     true,
	}, c.body)
	index := int(c.executed.Add(1))

	// The run's coverage signature: contention-model tasks plus the
	// observed outcome class, so outcome diversity also counts as
	// progress (the multi-outcome benchmark's lesson). The run's
	// coverage also folds into the cumulative tracker here, once.
	ws.keys = ws.perRun.AppendTaskKeys(ws.keys[:0])
	outKey := outcomeKey{res.Verdict, res.Outcome}
	c.global.Merge(ws.perRun)

	newBug := c.recordBug(res, index)

	c.mu.Lock()
	c.ops[op]++
	if g != nil {
		c.repairs += g.repairs
	}
	gain := 0
	for _, task := range ws.keys {
		if !c.coveredTasks[task] {
			c.coveredTasks[task] = true
			gain++
		}
	}
	if !c.coveredOuts[outKey] {
		c.coveredOuts[outKey] = true
		gain++
	}
	if gain > 0 {
		c.coverageRuns++
	}
	if gain > 0 || newBug {
		e := &entry{
			schedule: slices.Clone(res.Schedule),
			gain:     gain,
			bug:      newBug,
		}
		if g != nil {
			e.hot = slices.Clone(g.hot)
		}
		c.corp.add(e)
	}
	c.mu.Unlock()
}

// recordBug merges a buggy result into the global deduplicated bug set
// and triggers the global stop under StopAtFirstBug. It reports
// whether the bug signature was new.
func (c *coordinator) recordBug(res *core.Result, index int) bool {
	if !res.Verdict.Bug() {
		return false
	}
	c.resMu.Lock()
	fresh := c.bugs.Add(res, index)
	c.resMu.Unlock()
	if c.opts.StopAtFirstBug {
		c.stopping.Store(true)
	}
	return fresh
}
