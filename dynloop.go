// Package dynloop is a library reproduction of "Control Speculation in
// Multithreaded Processors through Dynamic Loop Detection" (Tubella &
// González, HPCA 1998).
//
// It provides, as a pipeline of composable pieces:
//
//   - a dynamic loop detector (the paper's Current Loop Stack, §2) that
//     discovers loop executions and iterations in a retired instruction
//     stream with no compiler support;
//   - the LET/LIT loop-characterisation tables with the paper's LRU and
//     hit-ratio semantics (§2.3);
//   - a thread-level control-speculation engine for a multithreaded
//     machine model, with the IDLE, STR and STR(i) policies and the TPC
//     metric (§3);
//   - the §4 data-speculation statistics (path regularity, live-in
//     stride predictability);
//   - an execution substrate (mini-ISA, structured program builder,
//     interpreter) and 18 synthetic SPEC95-calibrated workloads; the
//     interpreter delivers the retired-instruction stream in reusable
//     zero-allocation event batches (RunConfig.BatchSize, default 1024),
//     so consumers cost one interface call per batch, not per
//     instruction;
//   - experiment drivers regenerating every table and figure of the
//     paper's evaluation;
//   - a parallel experiment orchestrator (bounded worker pool, keyed
//     result cache, per-job progress) that fans the experiment cells
//     across GOMAXPROCS — see RunAll, RunSweep and RunnerConfig; and
//   - a pass framework (Pass, MultiRun, NewObserverPass) that broadcasts
//     one traversal of a benchmark's instruction stream to any number of
//     independent analyses, so a whole sweep column costs one
//     interpretation instead of one per cell — the experiment drivers
//     fuse their (benchmark, budget) groups this way automatically; and
//   - a grid-serving subsystem: a crash-safe on-disk result store that
//     plugs in behind the orchestrator's cache (OpenStore,
//     NewStoreCache), and an HTTP daemon + client (NewServer,
//     NewClient, `dynloop serve`) that serve precomputed grids to
//     remote clients byte-identically to local runs; and
//   - a declarative grid layer (GridSpec, RunGrid, GridNames): every
//     paper section is a registered spec, and a user-authored JSON
//     spec sweeping any axes — benchmarks, budgets, seeds, CLS
//     capacities, TU counts, policies, ablation knobs — executes
//     through the same fusion/cache/store/serving machinery.
//
// Quick start:
//
//	bm, _ := dynloop.BenchmarkByName("swim")
//	unit, _ := bm.Build(1)
//	stats := dynloop.NewLoopStats()
//	engine := dynloop.NewEngine(dynloop.EngineConfig{TUs: 4, Policy: dynloop.STR()})
//	res, _ := dynloop.Run(unit, dynloop.RunConfig{Budget: 4_000_000}, stats, engine)
//	fmt.Println(res.Executed, stats.Summary().ItersPerExec, engine.Metrics().TPC())
//
// See the examples directory for runnable programs and DESIGN.md for the
// mapping from the paper to the modules.
package dynloop

import (
	"context"
	"io"

	"dynloop/internal/branchpred"
	"dynloop/internal/builder"
	"dynloop/internal/client"
	"dynloop/internal/datapred"
	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/harness"
	"dynloop/internal/loopdet"
	"dynloop/internal/loopstats"
	"dynloop/internal/looptab"
	"dynloop/internal/program"
	"dynloop/internal/runner"
	"dynloop/internal/server"
	"dynloop/internal/spec"
	"dynloop/internal/store"
	"dynloop/internal/trace"
	"dynloop/internal/tracefile"
	"dynloop/internal/wire"
	"dynloop/internal/workload"
)

// Core pipeline types.
type (
	// Unit is a built program bound to a seed, which selects its input
	// sequences. Units are immutable and shareable: a benchmark's
	// program is built once per process, Benchmark.Build binds it to
	// each seed (Unit.WithSeed), and every CPU made from it at any seed
	// shares one predecoded program.
	Unit = builder.Unit
	// RunConfig parametrises a pipeline run.
	RunConfig = harness.Config
	// RunResult reports what a run did.
	RunResult = harness.Result
	// Detector is the Current Loop Stack mechanism (§2.2).
	Detector = loopdet.Detector
	// DetectorConfig parametrises a Detector.
	DetectorConfig = loopdet.Config
	// Exec is one loop execution tracked by the detector. A *Exec is
	// valid from the ExecStart that hands it out until the ExecEnd that
	// retires it returns; the detector then reuses it for a later
	// execution, so observers must not keep the pointer past ExecEnd.
	Exec = loopdet.Exec
	// Observer receives loop events from the detector.
	Observer = loopdet.Observer
	// EndReason says why a loop execution ended.
	EndReason = loopdet.EndReason
)

// Workloads.
type (
	// Benchmark is one synthetic SPEC95 stand-in workload.
	Benchmark = workload.Benchmark
	// PaperRow carries the published reference numbers of a benchmark.
	PaperRow = workload.PaperRow
)

// Speculation engine (§3).
type (
	// Engine is the thread-speculation machine model.
	Engine = spec.Engine
	// EngineConfig parametrises an Engine.
	EngineConfig = spec.Config
	// EngineMetrics are the engine's aggregate results.
	EngineMetrics = spec.Metrics
	// Policy selects IDLE, STR or STR(i).
	Policy = spec.Policy
)

// Statistics collectors.
type (
	// LoopStats collects the paper's Table 1 statistics.
	LoopStats = loopstats.Collector
	// LoopStatsSummary is one Table 1 row.
	LoopStatsSummary = loopstats.Summary
	// TableTracker measures LET/LIT hit ratios (§2.3.1, Figure 4).
	TableTracker = looptab.Tracker
	// DataStats collects the §4 data-speculation statistics (Figure 8).
	DataStats = datapred.Collector
	// DataStatsSummary is the Figure 8 result set.
	DataStatsSummary = datapred.Summary
)

// Experiments and the parallel orchestrator.
type (
	// ExperimentConfig parametrises the table/figure drivers, including
	// the worker bound (Parallel) and an optional shared Runner.
	ExperimentConfig = expt.Config
	// Runner is the parallel experiment orchestrator: a bounded worker
	// pool with a keyed result cache and per-job progress events.
	Runner = runner.Runner
	// RunnerConfig parametrises a Runner.
	RunnerConfig = runner.Config
	// RunnerEvent is one per-job progress notification.
	RunnerEvent = runner.Event
	// RunnerStats are the runner-lifetime counters (jobs executed,
	// cache hits, coalesced waits, failures).
	RunnerStats = runner.Stats
	// SweepSpec selects the policy × machine-size grid RunSweep expands.
	SweepSpec = expt.SweepSpec
	// SweepRow is one cell of a RunSweep grid.
	SweepRow = expt.SweepRow
)

// The declarative grid layer: every experiment is a grid.Spec — axes
// (benchmarks, budgets, seeds, CLS capacities, TU counts, policies,
// ablation knobs), a metric selection and a render layout — compiled
// onto the cell/fusion/cache/store machinery. The paper's tables,
// figures, baselines and ablations are registered specs (GridNames);
// user-authored specs execute through the identical path.
type (
	// GridSpec declares an experiment grid (see internal/grid.Spec for
	// the axes and their JSON forms).
	GridSpec = grid.Spec
	// GridEntry is one registered grid: its canonical spec plus the
	// section renderer.
	GridEntry = grid.Entry
	// GridResult is an executed grid: resolved spec, cells, one value
	// per cell.
	GridResult = grid.Result
	// GridExclusion is one point of a GridSpec's exclusion-table axis.
	GridExclusion = grid.ExclusionSpec
	// GridRequest asks a Server to execute a grid (by registered name
	// or inline spec).
	GridRequest = wire.GridRequest
)

// RunGrid executes a declarative grid spec: axes compile to versioned
// cells, cached cells are served from memory or the disk store, and
// missing cells fuse per (benchmark, budget, seed) group into single
// traversals. Values return in canonical cell order, byte-identical at
// any worker count.
func RunGrid(ctx context.Context, cfg ExperimentConfig, s GridSpec) (*GridResult, error) {
	return grid.Run(ctx, cfg, s)
}

// GridNames lists the registered grids (the paper's sections plus the
// sweep), sorted.
func GridNames() []string { return grid.Names() }

// GridByName resolves a registered grid.
func GridByName(name string) (GridEntry, bool) { return grid.Lookup(name) }

// GridResultFrom rebuilds a GridResult from a value stream computed
// elsewhere (e.g. a daemon's /v1/grid response), re-validating shape
// and types against the spec's deterministic expansion. A registered
// grid compiles once per config and process, so the result's Cells
// (and its Spec's axis slices) are shared with every other result of
// that grid and config: treat them as read-only.
func GridResultFrom(cfg ExperimentConfig, s GridSpec, values []any) (*GridResult, error) {
	return grid.ResultFrom(cfg, s, values)
}

// RenderGrid formats a grid result: registered specs render their paper
// section, ad-hoc specs render through the generic table/CSV/JSON
// layout.
func RenderGrid(res *GridResult) (string, error) { return grid.RenderResult(res) }

// NewRunner returns a parallel experiment orchestrator to share across
// experiment drivers: the worker bound pools and identical cells are
// computed once. Set it as ExperimentConfig.Runner.
func NewRunner(cfg RunnerConfig) *Runner { return runner.New(cfg) }

// RunAll regenerates every table, figure, baseline and ablation of the
// paper's evaluation through one shared orchestrator and returns the
// rendered report. Cells are fanned across ExperimentConfig.Parallel
// workers (0 = GOMAXPROCS); the output is byte-identical at any worker
// count.
func RunAll(ctx context.Context, cfg ExperimentConfig) (string, error) {
	return expt.All(ctx, cfg)
}

// RunSweep runs an arbitrary benchmark × policy × machine-size grid
// through the orchestrator and returns one row per cell.
func RunSweep(ctx context.Context, cfg ExperimentConfig, sw SweepSpec) ([]SweepRow, error) {
	return expt.Sweep(ctx, cfg, sw)
}

// RenderSweep formats a RunSweep grid as a table.
func RenderSweep(rows []SweepRow) string { return expt.RenderSweep(rows) }

// Benchmarks returns the 18 synthetic SPEC95 workloads, sorted by name.
func Benchmarks() []Benchmark { return workload.All() }

// BenchmarkNames returns the workload names, sorted.
func BenchmarkNames() []string { return workload.Names() }

// BenchmarkByName looks a workload up by its SPEC95 name.
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// NewProgram returns a structured program builder (the codegen DSL used
// by the workloads; see package documentation for the register and
// memory conventions it maintains).
func NewProgram(name string, seed uint64) *builder.Builder { return builder.New(name, seed) }

// RandomProgram generates a random structured program for property
// testing and fuzzing.
func RandomProgram(seed uint64) (*Unit, error) {
	return builder.Random(seed, builder.RandomOpt{})
}

// Run executes a unit through a fresh detector with the observers
// attached (see harness.Run).
func Run(u *Unit, cfg RunConfig, observers ...Observer) (RunResult, error) {
	return harness.Run(u, cfg, observers...)
}

// The pass framework: one traversal, many analyses.
type (
	// Pass is one complete analysis lifecycle over an event stream
	// (Init / ConsumeBatch / Finalize). Detectors with observers
	// attached (NewObserverPass) and the branch-prediction baseline are
	// passes; MultiRun broadcasts one traversal to any number of them.
	Pass = trace.Pass
	// MultiRunConfig parametrises MultiRun: the instruction budget and
	// the event-batch size. Passes always run inline, in registration
	// order, on the predecoded interpreter, and the producer delivers
	// the narrowest event plane every pass accepts.
	MultiRunConfig = harness.MultiConfig
	// MultiRunResult reports what a fused run did.
	MultiRunResult = harness.MultiResult
)

// MultiRun executes the unit once, broadcasting every event batch to all
// passes, so N independent analyses cost one traversal of the stream
// instead of N. Each pass owns whatever detector and tables it needs,
// so results are identical to running each pass alone (see
// harness.MultiRun and the ExampleMultiRun godoc).
func MultiRun(u *Unit, cfg MultiRunConfig, passes ...Pass) (MultiRunResult, error) {
	return harness.MultiRun(u, cfg, passes...)
}

// NewObserverPass bundles a fresh detector with the given observers into
// one schedulable pass. clsCapacity follows RunConfig.CLSCapacity's
// convention (0 = the paper's 16, negative = unbounded). Keep the
// returned detector for its stats; keep the observers for their results.
func NewObserverPass(clsCapacity int, observers ...Observer) *Detector {
	return harness.NewObserverPass(clsCapacity, observers...)
}

// AsPass adapts a plain batch consumer (e.g. a trace.Hash or Counter)
// into a Pass with no-op lifecycle hooks, for fusing raw-stream
// consumers into a MultiRun traversal.
func AsPass(c TraceBatchConsumer) Pass { return trace.AsPass(c) }

// TraceBatchConsumer receives retired-instruction events in batches (see
// trace.BatchConsumer for the buffer-lifetime rules).
type TraceBatchConsumer = trace.BatchConsumer

// NewDetector returns a standalone loop detector; feed it trace events
// directly when not using Run.
func NewDetector(cfg DetectorConfig) *Detector { return loopdet.New(cfg) }

// NewLoopStats returns a Table-1 statistics collector.
func NewLoopStats() *LoopStats { return loopstats.NewCollector() }

// NewTableTracker returns a LET/LIT hit-ratio tracker with the given
// table capacities (0 = unbounded).
func NewTableTracker(letCapacity, litCapacity int) *TableTracker {
	return looptab.NewTracker(letCapacity, litCapacity)
}

// NewEngine returns a speculation engine.
func NewEngine(cfg EngineConfig) *Engine { return spec.NewEngine(cfg) }

// NewDataStats returns a Figure-8 data-speculation collector.
func NewDataStats() *DataStats { return datapred.NewCollector(datapred.Config{}) }

// Idle returns the IDLE policy (§3.1.2).
func Idle() Policy { return spec.Idle() }

// STR returns the stride policy (§3.1.2).
func STR() Policy { return spec.STR() }

// STRn returns the STR(i) policy (§3.1.2).
func STRn(i int) Policy { return spec.STRn(i) }

// Trace recording and replay (the ATOM-methodology analogue): record a
// run once, then drive the detector and its consumers from the file.
type (
	// TraceWriter streams events to a trace file.
	TraceWriter = tracefile.Writer
	// TraceReader replays a recorded trace file.
	TraceReader = tracefile.Reader
)

// NewTraceWriter writes a trace-file header (embedding the program) and
// returns a writer that implements the trace consumer interface.
func NewTraceWriter(w io.Writer, p *program.Program) (*TraceWriter, error) {
	return tracefile.NewWriter(w, p)
}

// NewTraceReader opens a recorded trace for replay.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	return tracefile.NewReader(r)
}

// The replay tier: a directory archive of CRC-framed recordings, one
// per (benchmark, seed), and the record-or-replay orchestration that
// serves MultiRun-shaped work from it. Set ExperimentConfig.Traces (or
// pass -traces to the CLI) and cold groups record once while every
// later group replays the file — a pure decode, byte-identical results,
// no interpretation.
type (
	// TraceArchive is the on-disk recording archive with its in-memory
	// validated index.
	TraceArchive = tracefile.Archive
	// TraceRecording is one loaded (benchmark, seed) recording.
	TraceRecording = tracefile.Recording
	// TraceDecoder is a reusable replay scratch buffer; a warmed decoder
	// makes TraceRecording.Replay allocation-free.
	TraceDecoder = tracefile.Decoder
	// Traces is the replay tier over an archive; wire it into an
	// ExperimentConfig.
	Traces = harness.Traces
)

// OpenTraceArchive opens (creating if needed) a trace-archive
// directory, validating every recording and repairing a torn tail on
// the newest file.
func OpenTraceArchive(dir string) (*TraceArchive, error) {
	return tracefile.OpenArchive(dir)
}

// NewTraces wraps an opened archive in the replay tier.
func NewTraces(a *TraceArchive) *Traces { return harness.NewTraces(a) }

// The grid-serving subsystem: a persistent result store, the HTTP
// daemon behind `dynloop serve`, and its Go client. Cell results cross
// the store and the wire in the same versioned binary frames
// (internal/codec), so a persisted or remotely computed cell is
// byte-identical to a local one.
type (
	// Store is the content-addressed, crash-safe on-disk result store:
	// append-only segment files with CRC-framed records, addressed by
	// the cell's full configuration key.
	Store = store.Store
	// StoreOptions tune a Store.
	StoreOptions = store.Options
	// StoreStats are the store's on-disk and lifetime counters.
	StoreStats = store.Stats
	// RunnerCache is the pluggable second result tier behind a Runner's
	// in-memory cache (see NewStoreCache).
	RunnerCache = runner.Cache
	// Server is the grid-serving HTTP daemon over a shared Runner and
	// an optional Store.
	Server = server.Server
	// ServerConfig parametrises a Server.
	ServerConfig = server.Config
	// Client talks to a Server.
	Client = client.Client
)

// OpenStore opens (creating if needed) an on-disk result store, scans
// its segments to rebuild the index, and recovers from a torn tail
// left by a crash.
func OpenStore(dir string, opts StoreOptions) (*Store, error) { return store.Open(dir, opts) }

// NewStoreCache adapts a Store into a Runner's second cache tier: set
// it as RunnerConfig.Cache and every computed cell persists, every
// repeat cell is served from disk without a traversal.
func NewStoreCache(s *Store) RunnerCache { return store.NewCache(s) }

// NewServer builds a grid-serving daemon; serve its Handler (or call
// ListenAndServe) to accept remote grids over the shared Runner.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// NewClient returns a client for a daemon at base (e.g.
// "http://127.0.0.1:9090"); nil selects http.DefaultClient.
func NewClient(base string) *Client { return client.New(base, nil) }

// NewOracleRecorder returns an observer that records every execution's
// true iteration count, for EngineConfig.OracleIters (perfect-prediction
// upper-bound studies).
func NewOracleRecorder() *spec.OracleRecorder { return spec.NewOracleRecorder() }

// NewBranchPredictorSuite returns the conventional branch-prediction
// baseline (BTFN, bimodal, gshare) as a raw-stream consumer — attach it
// through RunConfig.PreDetector to score it on any workload.
func NewBranchPredictorSuite() *branchpred.Collector { return branchpred.DefaultSuite() }
