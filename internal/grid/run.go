package grid

import (
	"context"
	"fmt"
	"sync/atomic"

	"dynloop/internal/builder"
	"dynloop/internal/harness"
	"dynloop/internal/loopdet"
	"dynloop/internal/looptab"
	"dynloop/internal/runner"
	"dynloop/internal/spec"
	"dynloop/internal/trace"
)

// Result is an executed (or remotely fetched) grid: the resolved spec,
// the compiled cells and one value per cell, in cell order. Values hold
// the kind's codec-registered result type (spec.Metrics for kind
// "spec", Table1Row for "table1", ...).
type Result struct {
	Spec Spec
	// Cells are the compiled cells. For a registered grid they, and the
	// axis slices of Spec, are shared with every other result of the
	// same grid and config (see Compile): read them, never modify them.
	Cells  []Cell
	Values []any
}

// Value returns cell i's result; it exists for symmetry with the typed
// accessors the drivers build on top.
func (r *Result) Value(i int) any { return r.Values[i] }

// Run compiles the spec under cfg and resolves every cell through the
// runner — cached cells are served individually (memory first, then the
// optional disk store), missing cells execute fused per (benchmark,
// budget, seed) group: one unit build, one harness.MultiRun traversal
// feeding all of the group's passes, then each cell's finish hook.
// Composite kinds (oracle) run as plain jobs owning their traversals.
// Values return in cell order, byte-identical at any worker count.
//
// The runner is resolved exactly once per Run (see Config.Runner for
// the sharing contract); pass a shared Runner to deduplicate cells
// across grids.
func Run(ctx context.Context, cfg Config, s Spec) (*Result, error) {
	cells, rs, err := Compile(cfg, s)
	if err != nil {
		return nil, err
	}
	pool := cfg.pool()
	var values []any
	if rs.Kind == "oracle" {
		jobs := make([]runner.Job[any], len(cells))
		for i, c := range cells {
			jobs[i] = runner.Job[any]{Key: c.Key, Label: c.Label,
				Run: func(ctx context.Context) (any, error) { return c.run(ctx, &cfg, pool) }}
		}
		values, err = runner.Map(ctx, pool, jobs)
	} else {
		values, err = runCells(ctx, cfg, pool, cells)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: rs, Cells: cells, Values: values}
	if err := res.check(); err != nil {
		return nil, err
	}
	return res, nil
}

// runCells resolves fusable cells through runner.MapGroups: all
// cache-missing cells sharing a (benchmark, budget, seed, batch) group
// execute in a single fused traversal, observing it through the group's
// shared detectors (see group). The traversal comes from the first
// source that serves it (see harness.Traverse): the runner's recording
// of the stream, the trace archive, or the interpreter.
func runCells(ctx context.Context, cfg Config, pool *runner.Runner, cells []Cell) ([]any, error) {
	jobs := make([]runner.GroupJob[any], len(cells))
	for i, c := range cells {
		jobs[i] = runner.GroupJob[any]{Key: c.Key, Group: c.group, Label: c.Label}
	}
	exec := func(ctx context.Context, _ string, idx []int) ([]any, error) {
		lead := cells[idx[0]]
		g := newGroup()
		finish := make([]func() (any, error), len(idx))
		for j, i := range idx {
			finish[j] = cells[i].attach(g)
		}
		mc := harness.MultiConfig{Budget: lead.Coord.Budget, BatchSize: cfg.BatchSize}
		build := func() (*builder.Unit, error) {
			u, err := lead.bench.Build(lead.Coord.Seed)
			if err != nil {
				return nil, fmt.Errorf("grid: build %s: %w", lead.bench.Name, err)
			}
			return u, nil
		}
		_, src, err := harness.Traverse(ctx, pool.Recordings(), cfg.Traces, lead.bench.Name, lead.Coord.Seed, build, mc, g.passes...)
		if err != nil {
			return nil, err
		}
		if cfg.Traces != nil && src != harness.FromRecording {
			pool.CountTraceRun(src == harness.FromArchive)
		}
		out := make([]any, len(idx))
		for j, f := range finish {
			if out[j], err = f(); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return runner.MapGroups(ctx, pool, jobs, exec)
}

// ResultFrom rebuilds a Result from a value stream computed elsewhere
// (the serving layer returns values in cell order; the spec expansion
// is deterministic, so client and daemon agree on what each value is).
// It re-validates shape and value types, so a skewed or truncated
// stream fails loudly instead of rendering garbage. A registered grid's
// cells come from Compile's memo and are shared (see Result.Cells).
func ResultFrom(cfg Config, s Spec, values []any) (*Result, error) {
	cells, rs, err := Compile(cfg, s)
	if err != nil {
		return nil, err
	}
	if len(values) != len(cells) {
		return nil, fmt.Errorf("grid: %d values for %d cells", len(values), len(cells))
	}
	res := &Result{Spec: rs, Cells: cells, Values: values}
	if err := res.check(); err != nil {
		return nil, err
	}
	return res, nil
}

// check verifies every value carries the kind's result type. A cache
// key determines its result type, so a mismatch means a stale or
// foreign value sneaked in — fail loudly rather than render nonsense.
func (r *Result) check() error {
	ok := kindTypeCheck(r.Spec.Kind)
	for i, v := range r.Values {
		if !ok(v) {
			return fmt.Errorf("grid: cell %d (%s) holds %T, not the %q result type",
				i, r.Cells[i].Label, v, r.Spec.Kind)
		}
	}
	return nil
}

func kindTypeCheck(kind string) func(any) bool {
	switch kind {
	case "spec":
		return func(v any) bool { _, ok := v.(spec.Metrics); return ok }
	case "table1":
		return func(v any) bool { _, ok := v.(Table1Row); return ok }
	case "fig4":
		return func(v any) bool { _, ok := v.(Fig4Cell); return ok }
	case "fig8":
		return func(v any) bool { _, ok := v.(Fig8Row); return ok }
	case "clssize":
		return func(v any) bool { _, ok := v.(CLSCell); return ok }
	case "replacement":
		return func(v any) bool { _, ok := v.(ReplCell); return ok }
	case "oneshots":
		return func(v any) bool { _, ok := v.(OneShotRow); return ok }
	case "branchpred":
		return func(v any) bool { _, ok := v.(BaselineRow); return ok }
	case "taskpred":
		return func(v any) bool { _, ok := v.(TaskPredRow); return ok }
	case "oracle":
		return func(v any) bool { _, ok := v.(OracleRow); return ok }
	default:
		return func(any) bool { return false }
	}
}

// groupDetectors counts the detectors fused groups have built, process
// wide, so tests can pin how many a render needs.
var groupDetectors atomic.Uint64

// group is the pass set of one fused traversal, built by its cells'
// attach hooks. Cells do not own detectors: the group builds one per
// resolved CLS capacity and event plane, on first use, and every cell
// observing through that CLS shares it. The speculation engines on one
// detector that agree on the LET capacity share one LET, kept current
// by one looptab.LETFeeder. Both are exact. A detector's events depend
// only on the stream and its capacity (grid detectors never flush
// periodically), and observers never mutate an Exec, so each observer
// sees what a private detector would show it. An engine's LET depends
// only on those events and its capacity, and the engine reads it only
// through PredictIters, which leaves the LRU order alone.
type group struct {
	dets   []groupDet
	passes []trace.Pass // detectors and detector-free passes, in creation order
	// A one-cell group (the common cache miss of a served grid) needs
	// one of each; the buffers keep it from allocating either slice.
	detBuf  [1]groupDet
	passBuf [1]trace.Pass
}

// groupDet is one of a group's detectors with the LETs its engines
// share.
type groupDet struct {
	capacity int  // resolved CLS capacity
	stream   bool // full event plane: a stream observer is attached
	det      *loopdet.Detector
	lets     []*looptab.LET
}

func newGroup() *group {
	g := &group{}
	g.dets, g.passes = g.detBuf[:0], g.passBuf[:0]
	return g
}

// detector returns the group's detector for CLS capacity cls (the
// harness convention: 0 is the default, negative unbounded) on the full
// event plane when stream is set and on the control plane otherwise,
// creating it on first use. Keying by plane keeps control-only
// observers off the full plane.
func (g *group) detector(cls int, stream bool) *loopdet.Detector {
	return g.slot(cls, stream).det
}

func (g *group) slot(cls int, stream bool) *groupDet {
	capacity := harness.ResolveCLSCapacity(cls)
	for i := range g.dets {
		if d := &g.dets[i]; d.capacity == capacity && d.stream == stream {
			return d
		}
	}
	det := harness.NewObserverPass(cls)
	groupDetectors.Add(1)
	g.dets = append(g.dets, groupDet{capacity: capacity, stream: stream, det: det})
	g.passes = append(g.passes, det)
	return &g.dets[len(g.dets)-1]
}

// observe attaches o to the group's detector for CLS capacity cls, on
// the plane o needs.
func (g *group) observe(cls int, o loopdet.Observer) {
	_, stream := o.(loopdet.StreamObserver)
	g.detector(cls, stream).AddObserver(o)
}

// engine attaches a speculation engine for ec to the group's detector
// for CLS capacity cls. It predicts from the detector's LET of
// ec.LETCapacity entries, which the group creates, with its feeder, for
// the first such engine. ec must not carry oracle counts.
func (g *group) engine(cls int, ec spec.Config) *spec.Engine {
	d := g.slot(cls, false)
	var let *looptab.LET
	for _, l := range d.lets {
		if l.Capacity() == ec.LETCapacity {
			let = l
			break
		}
	}
	if let == nil {
		let = looptab.NewLET(ec.LETCapacity)
		d.lets = append(d.lets, let)
		d.det.AddObserver(&looptab.LETFeeder{LET: let})
	}
	e := spec.NewSharedEngine(ec, let)
	d.det.AddObserver(e)
	return e
}

// add schedules a pass that needs no detector, such as the branch
// predictor suite.
func (g *group) add(p trace.Pass) { g.passes = append(g.passes, p) }
