package grid

import (
	"context"
	"fmt"
	"sync/atomic"

	"dynloop/internal/builder"
	"dynloop/internal/harness"
	"dynloop/internal/loopdet"
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
	cells, rs, jobs, err := compileJobs(cfg, s)
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
		if jobs == nil {
			jobs = groupJobs(cells)
		}
		values, err = runCells(ctx, cfg, pool, cells, jobs)
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

// groupJobs returns the runner.MapGroups jobs of cells, one per cell in
// cell order. A registered grid's jobs are built once, with its
// memoized cells.
func groupJobs(cells []Cell) []runner.GroupJob[any] {
	jobs := make([]runner.GroupJob[any], len(cells))
	for i, c := range cells {
		jobs[i] = runner.GroupJob[any]{Key: c.Key, Group: c.group, Label: c.Label}
	}
	return jobs
}

// runCells resolves fusable cells through runner.MapGroups: all
// cache-missing cells sharing a (benchmark, budget, seed, batch) group
// execute in a single fused traversal (see runGroup). jobs are the
// cells' groupJobs, which MapGroups only reads.
func runCells(ctx context.Context, cfg Config, pool *runner.Runner, cells []Cell, jobs []runner.GroupJob[any]) ([]any, error) {
	exec := func(ctx context.Context, _ string, idx []int) ([]any, error) {
		return runGroup(ctx, &cfg, pool, cells, idx)
	}
	return runner.MapGroups(ctx, pool, jobs, exec)
}

// runGroup executes the cells at idx, which share a group key, in one
// fused traversal observed through the group's shared detectors (see
// group), and returns their values in idx order. The traversal comes
// from the first source that serves it (see harness.Traverse): the
// runner's recording of the stream, the trace archive, or the
// interpreter. Every finish hook has copied its value out before the
// group releases its passes to their pools.
func runGroup(ctx context.Context, cfg *Config, pool *runner.Runner, cells []Cell, idx []int) ([]any, error) {
	lead := cells[idx[0]]
	g := newGroup()
	defer g.release()
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
	if cfg.Traces != nil && src != harness.FromRecording && harness.ArchiveServes(g.passes...) {
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

// groupDetectors and groupBanks count the detectors and engine banks
// fused groups have built, process wide, so tests can pin how many a
// render needs.
var groupDetectors, groupBanks atomic.Uint64

// group is the pass set of one fused traversal, built by its cells'
// attach hooks. Cells do not own detectors: the group builds one per
// resolved CLS capacity and event plane, on first use, and every cell
// observing through that CLS shares it. The speculation engines on one
// detector that agree on the LET capacity are lanes of one spec.Bank,
// which keeps one LET for all of them. Both are exact. A detector's
// events depend only on the stream and its capacity (grid detectors
// never flush periodically), and observers never mutate an Exec, so
// each observer sees what a private detector would show it. An
// engine's LET depends only on those events and its capacity, and a
// lane computes what an engine of its own would.
//
// The group owns its detectors, banks and observers, and release hands
// them back to their packages' pools once the finish hooks have copied
// their values out, so a finish hook must return values that share no
// storage with a pass.
type group struct {
	dets   []groupDet
	passes []trace.Pass // detectors and detector-free passes, in creation order
	// owned are the observers the group releases besides its detectors
	// and banks.
	owned []releaser
	// A one-cell group (the common cache miss of a served grid) needs
	// one of each; the buffers keep it from allocating either slice.
	detBuf  [1]groupDet
	passBuf [1]trace.Pass
}

// releaser is a pass or observer whose storage its package recycles.
type releaser interface{ Release() }

// groupDet is one of a group's detectors with its engine banks, one per
// LET capacity.
type groupDet struct {
	capacity int  // resolved CLS capacity
	tap      bool // control plane with the data tap: a tap observer is attached
	det      *loopdet.Detector
	banks    []*spec.Bank
}

func newGroup() *group {
	g := &group{}
	g.dets, g.passes = g.detBuf[:0], g.passBuf[:0]
	return g
}

// detector returns the group's detector for CLS capacity cls (the
// harness convention: 0 is the default, negative unbounded) on the
// control plane with the data tap when tap is set and on the control
// plane alone otherwise, creating it on first use. Keying by plane keeps
// control-only observers off the tap, so a traversal that serves no
// tap observer can come from a recording or the archive.
func (g *group) detector(cls int, tap bool) *loopdet.Detector {
	return g.slot(cls, tap).det
}

func (g *group) slot(cls int, tap bool) *groupDet {
	capacity := harness.ResolveCLSCapacity(cls)
	for i := range g.dets {
		if d := &g.dets[i]; d.capacity == capacity && d.tap == tap {
			return d
		}
	}
	det := harness.NewObserverPass(cls)
	groupDetectors.Add(1)
	g.dets = append(g.dets, groupDet{capacity: capacity, tap: tap, det: det})
	g.passes = append(g.passes, det)
	return &g.dets[len(g.dets)-1]
}

// observe attaches o to the group's detector for CLS capacity cls, on
// the plane o needs. The group owns o: it releases o with its passes
// when o can be recycled.
func (g *group) observe(cls int, o loopdet.Observer) {
	_, tap := o.(loopdet.TapObserver)
	g.detector(cls, tap).AddObserver(o)
	if r, ok := o.(releaser); ok {
		g.owned = append(g.owned, r)
	}
}

// release hands the group's detectors, banks and owned observers back
// to their pools. Nothing may use them afterwards.
func (g *group) release() {
	for i := range g.dets {
		d := &g.dets[i]
		d.det.Release()
		for _, b := range d.banks {
			b.Release()
		}
	}
	for _, r := range g.owned {
		r.Release()
	}
}

// engine adds a speculation engine for ec as a lane of the bank of
// ec.LETCapacity on the group's detector for CLS capacity cls, creating
// and attaching the bank for the first such engine.
func (g *group) engine(cls int, ec spec.Config) spec.Lane {
	d := g.slot(cls, false)
	for _, b := range d.banks {
		if b.LETCapacity() == ec.LETCapacity {
			return b.Add(ec)
		}
	}
	b := spec.NewBank(ec.LETCapacity)
	groupBanks.Add(1)
	d.banks = append(d.banks, b)
	d.det.AddObserver(b)
	return b.Add(ec)
}

// add schedules a pass that needs no detector, such as the branch
// predictor suite.
func (g *group) add(p trace.Pass) { g.passes = append(g.passes, p) }
