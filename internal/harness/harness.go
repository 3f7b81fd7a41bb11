// Package harness wires the pipeline together: a built Unit executes on a
// fresh CPU and the instruction stream flows in batches to one or more
// analysis passes — each typically a loop Detector with observers
// (statistics collectors, tables, speculation engines) attached.
// Experiments, examples and tests all run through this package.
//
// Run is the single-pass entry point (one detector, N observers).
// MultiRun is the fused entry point: one traversal of the stream feeds
// any number of independent passes through a trace.Broadcast, so a whole
// column of experiment cells — different policies, table capacities,
// even different CLS capacities — costs one interpretation instead of
// one per cell. Passes share no state. A detector with its observers is
// one pass, and the grid layer gives each fused group one detector per
// CLS capacity and event plane, shared by every cell that observes the
// stream through it. Traverse picks where a traversal comes from: a
// runner's control-plane recording of the stream, a trace archive, or
// the interpreter.
package harness

import (
	"sync/atomic"

	"dynloop/internal/builder"
	"dynloop/internal/loopdet"
	"dynloop/internal/obs"
	"dynloop/internal/trace"
)

// DefaultCLSCapacity is the paper's CLS size (16 entries, §2.3.1).
const DefaultCLSCapacity = 16

// traversals counts interpreter traversals started by Run, MultiRun and
// the trace tier's record path across the process, for efficiency
// assertions: fusing N cells into one MultiRun must show up as one
// traversal, not N. mTraversals mirrors it into the obs registry for
// /metrics. Replays — from a trace archive (Replays) or from a runner's
// control-plane recording (interp.CtlReplays) — are excluded from both.
var traversals atomic.Uint64

var mTraversals = obs.NewCounter("dynloop_traversals_total",
	"Interpreter traversals started by Run/MultiRun (archive and control-plane replays excluded).")

// Traversals returns the process-lifetime count of interpreter
// traversals. Archive and control-plane replays are not traversals.
func Traversals() uint64 { return traversals.Load() }

// ResolveCLSCapacity maps the harness capacity convention to a
// loopdet.Config capacity: 0 selects DefaultCLSCapacity, negative means
// unbounded.
func ResolveCLSCapacity(c int) int {
	switch {
	case c == 0:
		return DefaultCLSCapacity
	case c < 0:
		return 0
	default:
		return c
	}
}

// Config parametrises a run.
type Config struct {
	// Budget is the dynamic instruction limit (0 = run to halt).
	Budget uint64
	// CLSCapacity bounds the CLS; 0 selects DefaultCLSCapacity, negative
	// means unbounded.
	CLSCapacity int
	// BatchSize is the event-batch size the interpreter delivers the
	// stream in (0 selects interp.DefaultBatchSize). Results are
	// identical at any setting; 1 degenerates to per-instruction
	// delivery.
	BatchSize int
	// Extra trace consumers that should see the raw stream before the
	// detector (e.g. trace.Hash for determinism checks). Consumers that
	// implement trace.BatchConsumer are driven through their native
	// batch path.
	PreDetector []trace.Consumer
}

// Result reports what a run did.
type Result struct {
	// Executed is the number of retired instructions.
	Executed uint64
	// Halted reports whether the program ran to completion (rather than
	// exhausting the budget).
	Halted bool
	// Detector is the detector used, for stats inspection.
	Detector *loopdet.Detector
}

// Run executes the unit under a fresh detector with the given observers
// attached, flushes the detector at the end, and returns the result. It
// is MultiRun with a single observer pass (plus any PreDetector
// consumers, which see the stream first).
func Run(u *builder.Unit, cfg Config, observers ...loopdet.Observer) (Result, error) {
	det := NewObserverPass(cfg.CLSCapacity, observers...)
	passes := make([]trace.Pass, 0, len(cfg.PreDetector)+1)
	for _, c := range cfg.PreDetector {
		passes = append(passes, trace.AsPass(trace.AsBatch(c)))
	}
	passes = append(passes, det)
	res, err := MultiRun(u, MultiConfig{Budget: cfg.Budget, BatchSize: cfg.BatchSize}, passes...)
	return Result{Executed: res.Executed, Halted: res.Halted, Detector: det}, err
}

// NewObserverPass bundles a fresh detector with the given observers into
// one schedulable pass (Finalize flushes the CLS). clsCapacity follows
// the Config.CLSCapacity convention: 0 selects DefaultCLSCapacity,
// negative means unbounded. Keep the returned detector to read its
// stats; keep the observers to read their results.
func NewObserverPass(clsCapacity int, observers ...loopdet.Observer) *loopdet.Detector {
	det := loopdet.New(loopdet.Config{Capacity: ResolveCLSCapacity(clsCapacity)})
	for _, o := range observers {
		det.AddObserver(o)
	}
	return det
}

// MultiConfig parametrises a fused multi-pass run.
type MultiConfig struct {
	// Budget is the dynamic instruction limit (0 = run to halt).
	Budget uint64
	// BatchSize is the event-batch size (0 selects
	// interp.DefaultBatchSize). Results are identical at any setting.
	BatchSize int
}

// MultiResult reports what a fused run did.
type MultiResult struct {
	// Executed is the number of retired instructions.
	Executed uint64
	// Halted reports whether the program ran to completion.
	Halted bool
	// Batches is the number of buffer epochs delivered.
	Batches uint64
}

// MultiRun executes the unit once, broadcasting every event batch to all
// passes: Init before the first batch (in pass order), ConsumeBatch per
// batch, Finalize after the last (in pass order, skipped on error). One
// traversal of the stream thus feeds N independent analyses; because
// every pass owns whatever detector or tables it needs, the results are
// identical to running each pass in its own traversal.
func MultiRun(u *builder.Unit, cfg MultiConfig, passes ...trace.Pass) (MultiResult, error) {
	traversals.Add(1)
	mTraversals.Inc()
	cpu := u.NewCPU()
	cpu.SetBatchSize(cfg.BatchSize)
	return fanOut(passes, func(b *trace.Broadcast) (uint64, bool, error) {
		n, err := cpu.Run(cfg.Budget, b)
		return n, cpu.Halted(), err
	})
}

// fanOut runs one traversal of the passes over a broadcast: Init, then
// feed (which delivers the stream to b and reports the instructions it
// covered and whether the program halted), then Finalize unless feed
// failed.
func fanOut(passes []trace.Pass, feed func(b *trace.Broadcast) (uint64, bool, error)) (MultiResult, error) {
	b := trace.NewBroadcast(0, passes...)
	b.Init()
	n, halted, err := feed(b)
	if err != nil {
		return MultiResult{Executed: n, Batches: b.Epochs()}, err
	}
	b.Finalize()
	return MultiResult{Executed: n, Halted: halted, Batches: b.Epochs()}, nil
}
