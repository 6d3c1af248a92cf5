// Package mtbench is a benchmark and framework for research on
// multi-threaded testing tools — a Go implementation of the system
// proposed by Havelund, Stoller and Ur, "Benchmark and Framework for
// Encouraging Research on Multi-Threaded Testing Tools" (PADTAD/IPDPS
// 2003).
//
// The package re-exports the framework's stable API; implementations
// live under internal/. The moving parts:
//
//   - Programs are written against the T interface (mutexes, rwmutexes,
//     condition variables, shared variables, fork/join, virtual sleep)
//     and run under two interchangeable runtimes: RunControlled, a
//     deterministic scheduler where a pluggable Strategy decides every
//     interleaving (replay and systematic exploration live here), and
//     RunNative, real goroutines under the live Go scheduler
//     (ConTest-style noise injection lives here).
//
//   - Every dynamic tool — noise makers, race detectors, deadlock
//     analysis, replay recording, coverage, tracing, temporal-logic
//     monitoring — is a Listener over one event stream, online or
//     offline (replayed from a recorded trace).
//
//   - The Repository* functions expose the collection of documented
//     buggy programs; Experiment* functions run the prepared
//     evaluation scripts and return report tables.
//
// See README.md for a tour and DESIGN.md for the paper-to-module map.
package mtbench

import (
	"io"

	"mtbench/internal/campaign"
	"mtbench/internal/campsvc"
	"mtbench/internal/cloning"
	"mtbench/internal/core"
	"mtbench/internal/coverage"
	"mtbench/internal/deadlock"
	"mtbench/internal/experiment"
	"mtbench/internal/explore"
	"mtbench/internal/fuzz"
	"mtbench/internal/instrument"
	"mtbench/internal/ltl"
	"mtbench/internal/multiout"
	"mtbench/internal/native"
	"mtbench/internal/noise"
	"mtbench/internal/pct"
	"mtbench/internal/race"
	"mtbench/internal/replay"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
	"mtbench/internal/staticinfo"
	"mtbench/internal/strategies"
	"mtbench/internal/trace"
)

// Core vocabulary.
type (
	// T is the thread context benchmark programs are written against.
	T = core.T
	// Handle joins a spawned thread.
	Handle = core.Handle
	// Mutex, RWMutex, Cond, IntVar and RefVar are the instrumented
	// synchronization objects.
	Mutex   = core.Mutex
	RWMutex = core.RWMutex
	Cond    = core.Cond
	IntVar  = core.IntVar
	RefVar  = core.RefVar
	// Event is the single interchange record every tool consumes.
	Event = core.Event
	// Listener observes the event stream; all tools implement it.
	Listener = core.Listener
	// ListenerFunc adapts a function to Listener.
	ListenerFunc = core.ListenerFunc
	// Result is a run's outcome.
	Result = core.Result
	// Bug is one erroneous schedule a search found (Explore, Fuzz or
	// RunPCT), replayable through FixedSchedule or the replay package.
	// ExploreResult, FuzzResult and PCTResult embed the same ledger, a
	// core.BugLog: Bugs holds the distinct bugs, deduplicated by
	// signature, in run order.
	Bug = core.Bug
	// Verdict classifies how a run ended.
	Verdict = core.Verdict
	// ThreadID and ObjectID identify threads and objects within a run.
	ThreadID = core.ThreadID
	ObjectID = core.ObjectID
	// Op is the operation kind of an event.
	Op = core.Op
)

// Verdicts.
const (
	VerdictPass      = core.VerdictPass
	VerdictFail      = core.VerdictFail
	VerdictDeadlock  = core.VerdictDeadlock
	VerdictStepLimit = core.VerdictStepLimit
	VerdictTimeout   = core.VerdictTimeout
	VerdictDiverged  = core.VerdictDiverged
)

// Controlled runtime.
type (
	// ControlledConfig configures a deterministic controlled run.
	ControlledConfig = sched.Config
	// Strategy decides which thread runs at each scheduling point.
	Strategy = sched.Strategy
	// Choice is one scheduling decision offered to a Strategy.
	Choice = sched.Choice
	// FixedSchedule replays an explicit decision sequence.
	FixedSchedule = sched.FixedSchedule
	// ControlledRunner executes controlled runs back to back, reusing
	// goroutines and buffers between them — the hot-path form of
	// RunControlled for search loops (see sched.Runner for the
	// Result.Schedule ownership caveat).
	ControlledRunner = sched.Runner
)

// RunControlled executes body under the deterministic scheduler.
func RunControlled(cfg ControlledConfig, body func(T)) *Result { return sched.Run(cfg, body) }

// NewControlledRunner returns a pooled runner for back-to-back
// controlled runs; call Close when done with it.
func NewControlledRunner() *ControlledRunner { return sched.NewRunner() }

// Stock strategies.
var (
	// Nonpreemptive is the deterministic run-to-block scheduler (the
	// "unit test" baseline the paper blames for hiding bugs).
	Nonpreemptive = sched.Nonpreemptive
	// RoundRobin switches threads at every scheduling point.
	RoundRobin = sched.RoundRobin
	// Random picks uniformly among runnable threads (seeded).
	Random = sched.Random
	// RandomWhenBlocked runs to block with random dispatch (the live
	// OS-scheduler model noise runs over).
	RandomWhenBlocked = sched.RandomWhenBlocked
	// NewStrategyFactory looks a tool up by name (baseline, roundrobin,
	// random, dispatch, noise or pct) in the table every command uses;
	// its pct factory follows RunPCT's adaptive horizon. A factory
	// reseeds one strategy in place, so the strategy it returns is
	// valid until its next call.
	NewStrategyFactory = strategies.New
)

// StrategyParams are the strategy table entries' typed parameters.
type StrategyParams = strategies.Params

// Native runtime.
type (
	// NativeConfig configures a real-goroutine run.
	NativeConfig = native.Config
)

// RunNative executes body on real goroutines with instrumentation.
func RunNative(cfg NativeConfig, body func(T)) *Result { return native.Run(cfg, body) }

// Noise makers.
type (
	// NoiseHeuristic decides where and how to perturb the schedule.
	NoiseHeuristic = noise.Heuristic
	// NoiseDecision is one heuristic verdict.
	NoiseDecision = noise.Decision
	// NoiseStrategy wraps a base strategy with a heuristic for
	// controlled runs.
	NoiseStrategy = noise.Strategy
)

// Noise kinds and constructors.
const (
	NoiseYield = noise.KindYield
	NoiseSleep = noise.KindSleep
	NoiseMixed = noise.KindMixed
)

var (
	// NoNoise never perturbs.
	NoNoise = noise.None
	// Bernoulli perturbs with fixed probability.
	Bernoulli = noise.NewBernoulli
	// SharedVarNoise perturbs only at shared-variable accesses.
	SharedVarNoise = noise.SharedVarNoise
	// SyncNoise perturbs only at synchronization operations.
	SyncNoise = noise.SyncNoise
	// StatisticalNoise adapts per program location.
	StatisticalNoise = noise.NewStatistical
	// CoverageDirectedNoise targets rarely exercised coverage tasks.
	CoverageDirectedNoise = noise.NewCoverageDirected
	// WithNoise wraps a base strategy (nil = random dispatch) with a
	// heuristic for the controlled runtime.
	WithNoise = noise.NewStrategy
)

// Race detection.
type (
	// RaceDetector is a pluggable online/offline race detector.
	RaceDetector = race.Detector
	// RaceWarning is one reported potential race.
	RaceWarning = race.Warning
)

var (
	// NewLockset is the Eraser lockset detector.
	NewLockset = race.NewLockset
	// NewHB is the vector-clock happens-before detector;
	// respectAtomics selects whether atomic variables synchronize.
	NewHB = race.NewHB
	// NewHybrid reports only HB races whose lockset also ran empty.
	NewHybrid = race.NewHybrid
)

// Deadlock analysis.
type (
	// LockGraphAnalyzer finds deadlock potentials (GoodLock).
	LockGraphAnalyzer = deadlock.Analyzer
	// DeadlockPotential is one reported lock cycle.
	DeadlockPotential = deadlock.Potential
)

// NewLockGraph returns a fresh GoodLock analyzer.
var NewLockGraph = deadlock.NewAnalyzer

// Replay.
type (
	// Schedule is a saved, replayable scenario.
	Schedule = replay.Schedule
	// ReplayRecorder records native event order.
	ReplayRecorder = replay.Recorder
	// ReplayEnforcer gates a native run along a recorded order.
	ReplayEnforcer = replay.Enforcer
)

var (
	// RecordControlled runs and records a controlled schedule.
	RecordControlled = replay.RecordControlled
	// ReplayControlled re-runs a recorded controlled schedule exactly.
	ReplayControlled = replay.ReplayControlled
	// NewReplayRecorder records a native run's event order.
	NewReplayRecorder = replay.NewRecorder
	// NewReplayEnforcer enforces a recorded native order (best
	// effort; divergence is detected, not hidden).
	NewReplayEnforcer = replay.NewEnforcer
	// LoadSchedule reads a schedule saved with Schedule.Save.
	LoadSchedule = replay.Load
)

// Coverage.
type (
	// CoverageTracker accumulates concurrency coverage across runs.
	CoverageTracker = coverage.Tracker
	// CoverageUniverse bounds feasible tasks (from static analysis).
	CoverageUniverse = coverage.Universe
)

var (
	// NewCoverage returns an empty tracker.
	NewCoverage = coverage.NewTracker
	// AllocateBudget distributes a run budget by marginal coverage.
	AllocateBudget = coverage.Allocate
)

// Systematic exploration.
type (
	// ExploreOptions configures the stateless DFS search. Workers
	// shards the decision tree across a pool of search goroutines
	// (0 = one per core; 1 = the deterministic serial engine);
	// MaxSchedules and StopAtFirstBug are global budgets across the
	// pool.
	ExploreOptions = explore.Options
	// ExploreResult summarizes a search.
	ExploreResult = explore.Result
	// ExploreStats counts what the reduction layer pruned (sleep sets,
	// DPOR backtrack sets, canonical-state cache) during a search.
	ExploreStats = explore.Stats
	// Footprint is the reduction layer's (operation, interned object)
	// view of a pending operation; Footprint.Commutes is the
	// independence relation DPOR and sleep sets share.
	Footprint = core.Footprint
)

var (
	// Explore runs systematic state-space exploration, sharded over
	// ExploreOptions.Workers parallel workers.
	Explore = explore.Explore
	// PreemptionBound builds the Options.PreemptionBound value.
	PreemptionBound = explore.Bound
	// ExploreBound builds any of the Options bound values
	// (PreemptionBound, VariableBound, ThreadBound).
	ExploreBound = explore.Bound
)

// Probabilistic concurrency testing.
type (
	// PCTOptions configures a PCT campaign: random thread priorities
	// plus Depth−1 random priority-change points per run, with a
	// documented per-run lower bound on the probability of finding any
	// bug of depth Depth. A fixed Seed reproduces a campaign exactly.
	PCTOptions = pct.Options
	// PCTResult summarizes a campaign (runs, dedup'd bugs, and the
	// adaptive step/thread estimates that instantiate the guarantee).
	PCTResult = pct.Result
)

// RunPCT runs a probabilistic-concurrency-testing campaign — the
// randomized member of the bounding portfolio, between blind noise and
// systematic search.
var RunPCT = pct.Run

// Coverage-guided schedule fuzzing.
type (
	// FuzzOptions configures a greybox fuzzing campaign over schedules:
	// MaxRuns and StopAtFirstBug are global budgets across
	// FuzzOptions.Workers parallel workers; a fixed Seed with Workers: 1
	// reproduces a campaign exactly.
	FuzzOptions = fuzz.Options
	// FuzzResult summarizes a campaign (runs, dedup'd bugs, corpus and
	// coverage growth, runs per mutation operator).
	FuzzResult = fuzz.Result
)

var (
	// Fuzz runs coverage-guided schedule fuzzing: a corpus of
	// coverage-interesting decision logs, thread-aware mutators, and
	// concurrency-coverage feedback — the search regime between noise
	// and exhaustive exploration.
	Fuzz = fuzz.Fuzz
	// FuzzPreemptionBound builds the FuzzOptions.PreemptionBound value
	// for the bounding mutator.
	FuzzPreemptionBound = fuzz.Bound
)

// Cloning.
type (
	// CloneTest is a cloneable test for load testing.
	CloneTest = cloning.Test
)

var (
	// CloneControlled runs n clones under the controlled scheduler.
	CloneControlled = cloning.Controlled
	// CloneNative runs n clones on real goroutines.
	CloneNative = cloning.Native
	// ReserveTest is the canonical oversell load test.
	ReserveTest = cloning.Reserve
)

// Instrumentation plans.
type (
	// Plan selects which probes fire (the instrumentor interface).
	Plan = instrument.Plan
)

// NewPlan returns a plan instrumenting everything; chain DisableOps /
// DisableObjects / OnlyObjects to restrict it.
var NewPlan = instrument.All

// Traces.
type (
	// TraceHeader, TraceRecord, TraceWriter and TraceReader form the
	// benchmark's standard trace format.
	TraceHeader = trace.Header
	TraceRecord = trace.Record
	TraceWriter = trace.Writer
	TraceReader = trace.Reader
	// TraceCollector is the listener that writes annotated traces.
	TraceCollector = trace.Collector
)

var (
	// NewJSONLTraceWriter / NewBinaryTraceWriter create writers for
	// the two codecs; the matching readers parse them.
	NewJSONLTraceWriter  = trace.NewJSONLWriter
	NewBinaryTraceWriter = trace.NewBinaryWriter
	NewJSONLTraceReader  = trace.NewJSONLReader
	NewBinaryTraceReader = trace.NewBinaryReader
	// NewTraceCollector writes each event through a writer.
	NewTraceCollector = trace.NewCollector
	// ReplayTrace feeds a recorded trace to listeners (offline mode).
	ReplayTrace = trace.Replay
)

// Temporal-logic monitoring.
type (
	// LTLFormula is a past-time LTL property.
	LTLFormula = ltl.Formula
	// LTLMonitor checks a property over an event stream.
	LTLMonitor = ltl.Monitor
)

var (
	// ParseLTL parses the compact property syntax.
	ParseLTL = ltl.Parse
	// NewLTLMonitor compiles a formula into a listener.
	NewLTLMonitor = ltl.NewMonitor
)

// Repository.
type (
	// Program is one documented benchmark program.
	Program = repository.Program
	// ProgramParams overrides a program's default parameters.
	ProgramParams = repository.Params
)

var (
	// Programs returns every repository program.
	Programs = repository.All
	// BuggyPrograms returns the programs with documented defects.
	BuggyPrograms = repository.Buggy
	// CorrectPrograms returns the defect-free control programs.
	CorrectPrograms = repository.Correct
	// GetProgram looks a program up by name.
	GetProgram = repository.Get
)

// Static analysis.
type (
	// StaticInfo is the analysis result for one program.
	StaticInfo = staticinfo.Info
)

// AnalyzeProgram runs the source-level static analysis for a
// repository program (requires a source checkout).
var AnalyzeProgram = staticinfo.ForProgram

// Multi-outcome benchmark (component 4).
type (
	// OutcomeDistribution histograms canonical outcomes.
	OutcomeDistribution = multiout.Distribution
)

var (
	// MultioutBody returns the no-input many-outcomes program.
	MultioutBody = multiout.Body
	// CanonicalOutcome builds the comparable outcome string.
	CanonicalOutcome = multiout.Canonical
)

// Campaigns: the persistent, resumable, diffable benchmark matrix.
type (
	// CampaignConfig declares a finder×program×seed×budget matrix.
	CampaignConfig = campaign.Config
	// CampaignRecord is one completed, stored matrix cell.
	CampaignRecord = campaign.Record
	// CampaignStore is the persistent JSONL result store (resumable:
	// re-running skips completed cells; compacted stores of the same
	// fixed-seed config are byte-identical).
	CampaignStore = campaign.Store
	// CampaignSummary is one Run invocation's outcome.
	CampaignSummary = campaign.Summary
	// CampaignDiff classifies per-cell deltas between two stores; its
	// Gate method is the CI regression check.
	CampaignDiff = campaign.Diff
	// CampaignDelta is one classified difference.
	CampaignDelta = campaign.Delta
)

var (
	// RunCampaign executes (or resumes) a campaign matrix into a store.
	RunCampaign = campaign.Run
	// DefaultCampaign is the standard fixed-seed gate matrix.
	DefaultCampaign = campaign.Default
	// CampaignFinders lists the registered finder names.
	CampaignFinders = campaign.Finders
	// CreateCampaignStore / OpenCampaignStore / LoadCampaignStore
	// manage persistent stores (create fresh, open for resumption,
	// read-only load).
	CreateCampaignStore = campaign.Create
	OpenCampaignStore   = campaign.Open
	LoadCampaignStore   = campaign.Load
	// CompareCampaigns classifies per-cell deltas between two record
	// sets (bug lost / gained, budget regressions, missing cells).
	CompareCampaigns = campaign.Compare
	// CampaignTables renders a stored campaign as report tables.
	CampaignTables = campaign.SummaryTables
	// ExecCampaignCell runs one cell under the shared sandbox (panic ->
	// record, CellTimeout -> record, parent cancellation -> kill).
	ExecCampaignCell = campaign.ExecCell
	// RegisterCampaignFinder adds a finder to the campaign registry.
	RegisterCampaignFinder = campaign.RegisterFinder
)

// The distributed campaign service: a lease-granting coordinator and
// a fault-tolerant worker fleet that produce — for clean fixed-seed
// campaigns — a store byte-identical to an in-process RunCampaign.
type (
	// CampaignCoordinator owns a campaign store and grants cell leases.
	CampaignCoordinator = campsvc.Coordinator
	// CampaignCoordinatorOptions tune leases, retries and quarantine.
	CampaignCoordinatorOptions = campsvc.CoordinatorOptions
	// CampaignWorkerOptions configure one fleet worker.
	CampaignWorkerOptions = campsvc.WorkerOptions
	// CampaignWorkerStats summarizes one worker's run.
	CampaignWorkerStats = campsvc.WorkerStats
	// CampaignServiceStatus is a point-in-time fleet snapshot.
	CampaignServiceStatus = campsvc.Status
	// CampaignTransport is how a worker reaches a coordinator (HTTP
	// Client, or Local for in-process fleets).
	CampaignTransport = campsvc.Transport
	// CampaignClient is the HTTP transport to a remote coordinator.
	CampaignClient = campsvc.Client
)

var (
	// NewCampaignCoordinator starts coordinating a campaign store.
	NewCampaignCoordinator = campsvc.NewCoordinator
	// CampaignWork runs one worker's lease-execute-report loop until
	// the campaign completes.
	CampaignWork = campsvc.Work
	// CampaignHandler serves a coordinator's HTTP API.
	CampaignHandler = campsvc.Handler
)

// Prepared experiments.
type (
	// ExperimentTable is one evaluation report table.
	ExperimentTable = experiment.Table
	// ExperimentRunner is a named prepared experiment.
	ExperimentRunner = experiment.Runner
)

var (
	// Experiments lists the prepared experiments (F1, E1..E13).
	Experiments = experiment.Runners
	// GetExperiment looks an experiment up by id.
	GetExperiment = experiment.Get
)

// RenderTables writes report tables as aligned text.
func RenderTables(w io.Writer, tables []*ExperimentTable) error {
	return experiment.RenderAll(w, tables)
}
