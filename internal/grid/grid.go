// Package grid is the declarative experiment-grid layer: a Spec names
// the axes of a benchmark × budget × seed × CLS × machine × policy ×
// ablation grid plus a metric selection and a render layout, and the
// package compiles it onto the cell/pass machinery the whole stack is
// built from — deterministic versioned cell keys, fusion groups for
// runner.MapGroups, per-cell codec frames for the on-disk store and the
// serving wire format, and table/CSV/JSON rendering.
//
// Every table, figure, baseline and ablation of the paper's evaluation
// is a registered Spec (internal/expt registers them under names like
// "table1", "fig7" or "ablation/cls" with a section renderer), and a
// user-authored JSON Spec — a seed sweep at TU counts the paper never
// ran — executes through exactly the same path: Compile expands the
// axes to cells, Run resolves them through a shared Runner (memory
// cache, optional disk store, traversal fusion per (benchmark, budget,
// seed) group), and the layout renderer formats the values. The daemon
// serves the same Specs over POST /v1/grid; cells cross the wire as
// the codec frames the store persists, so remote and local renders are
// byte-identical.
package grid

import (
	"slices"
	"strconv"

	"dynloop/internal/harness"
	"dynloop/internal/runner"
	"dynloop/internal/workload"
)

// Config parametrises a grid execution. It carries everything that is
// about HOW a grid runs (worker bound, shared runner, batch size) plus
// the defaults a Spec's zero-valued axes resolve to (budget, seed, CLS
// capacity, benchmark subset).
type Config struct {
	// Budget is the per-benchmark dynamic instruction budget a zero
	// Spec budget resolves to. 0 selects DefaultBudget. (The paper ran
	// the first 10^9 instructions; all our statistics stabilise far
	// below that on the synthetic workloads — see DESIGN.md.)
	Budget uint64
	// Seed decorrelates workload input sequences; 0 selects 1. A Spec
	// may sweep explicit seeds instead.
	Seed uint64
	// Benchmarks restricts the run to a subset (nil = all 18) when the
	// Spec does not name its own.
	Benchmarks []string
	// CLSCapacity overrides the CLS size (0 = the paper's 16) when the
	// Spec does not sweep it.
	CLSCapacity int
	// BatchSize overrides the interpreter's event-batch size
	// (0 = interp.DefaultBatchSize). Results are byte-identical at any
	// setting; the determinism tests sweep it.
	BatchSize int
	// Parallel bounds the worker goroutines when the run builds its
	// own runner (0 = GOMAXPROCS); 1 reproduces the sequential schedule.
	// Ignored when Runner is set.
	Parallel int
	// Runner, when non-nil, executes the grid's cells. The sharing
	// contract: one Runner may (and for dedup, should) be shared across
	// any number of Run and driver calls — the worker bound, the keyed
	// result cache and the optional disk tier are runner-wide, so
	// overlapping cells across grids are computed once. When nil, each
	// Run/driver call resolves ONE private runner for the whole call
	// (never one per internal stage) and its cache dies with the call;
	// nothing is deduplicated across calls.
	Runner *runner.Runner
	// OnEvent streams per-job progress when the run builds its own
	// runner. Ignored when Runner is set (configure it there instead).
	OnEvent func(runner.Event)
	// Traces, when non-nil, is the replay tier: group executions that
	// miss the memory cache and the disk store record their instruction
	// stream into the trace archive on first interpretation, and every
	// later group over the same (benchmark, seed) whose budget the
	// recording covers replays the file instead of interpreting —
	// unless the runner's own recording of the stream serves it first
	// (see harness.Traverse).
	// Results are byte-identical either way (pinned by the
	// replay-equivalence suite); like Runner, one Traces may be shared
	// across any number of runs.
	Traces *harness.Traces
}

// DefaultBudget is the per-benchmark instruction budget grids use
// unless configured otherwise.
const DefaultBudget = 4_000_000

func (c Config) budget() uint64 {
	if c.Budget == 0 {
		return DefaultBudget
	}
	return c.Budget
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// pool resolves the runner a grid execution submits its cells to. Run
// calls it exactly once per execution — every stage of one call (fused
// groups, composite oracle jobs) shares the same pool, so a nil
// Config.Runner costs one runner per call, not one per stage.
func (c Config) pool() *runner.Runner {
	if c.Runner != nil {
		return c.Runner
	}
	return runner.New(runner.Config{Workers: c.Parallel, OnEvent: c.OnEvent})
}

// benchmarks resolves the configured subset to benchmark names.
func (c Config) benchmarks() ([]string, error) {
	if len(c.Benchmarks) == 0 {
		return workload.Names(), nil
	}
	for _, name := range c.Benchmarks {
		if _, err := workload.Lookup(name); err != nil {
			return nil, err
		}
	}
	return slices.Clone(c.Benchmarks), nil
}

// CellSchemaVersion stamps every cell key. Because keys address the
// persistent result store (and the serving layer's wire queries), a
// change to what a cell MEANS — detector semantics, metric definitions,
// workload generation — must bump this version: the new keys then miss
// every previously persisted result instead of serving stale ones.
// Purely additive changes (new cell types, new key parts) don't need a
// bump; the new keys cannot collide with old ones.
//
// It is a variable only so the self-invalidation regression test can
// bump it; treat it as a constant everywhere else.
var CellSchemaVersion = 1

// cellKey builds a runner cache key: the schema version, the Config
// fields every run depends on, then the cell's own coordinates. Keys
// must determine the result (and its Go type) completely — see
// runner.Job. Each part is length-prefixed so adjacent parts cannot
// blur into a colliding key ("a","bc" vs "ab","c", or a part containing
// the delimiter).
//
// Keys address persisted results, so their bytes are frozen: every part
// reads as fmt's %v of it. Each part type the cells use has a typed
// strconv case producing exactly that (%v of a float64 is strconv's
// shortest 'g'); anything else is a programming error.
// TestCellKeysMatchReference pins every compiled key against the fmt
// formula.
func (c Config) cellKey(parts ...any) string {
	var buf [128]byte
	b := append(buf[:0], 'v')
	b = strconv.AppendInt(b, int64(CellSchemaVersion), 10)
	b = append(b, "|b"...)
	b = strconv.AppendUint(b, c.budget(), 10)
	b = append(b, "|s"...)
	b = strconv.AppendUint(b, c.seed(), 10)
	b = append(b, "|cls"...)
	b = strconv.AppendInt(b, int64(c.CLSCapacity), 10)
	b = append(b, "|ba"...)
	b = strconv.AppendInt(b, int64(c.BatchSize), 10)
	for _, p := range parts {
		var num [32]byte
		switch v := p.(type) {
		case string:
			b = appendPart(b, v)
		case int:
			b = appendPart(b, strconv.AppendInt(num[:0], int64(v), 10))
		case bool:
			b = appendPart(b, strconv.AppendBool(num[:0], v))
		case float64:
			b = appendPart(b, strconv.AppendFloat(num[:0], v, 'g', -1, 64))
		default:
			panic("grid: cell key part of unsupported type")
		}
	}
	return string(b)
}

// appendPart appends one "|len:part" key part.
func appendPart[T string | []byte](b []byte, part T) []byte {
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(part)), 10)
	b = append(b, ':')
	return append(b, part...)
}

// appendGroupKey appends the name of a cell's fusion group: everything
// that determines the instruction stream its pass observes — the
// benchmark, the traversal budget, the input seed and the batch size.
// Cells of one execution sharing a group key run in one fused
// traversal; the per-pass knobs (policy, TU count, table capacities,
// even the CLS capacity) deliberately stay out.
func (c *Coord) appendGroupKey(b []byte, batchSize int) []byte {
	b = appendPart(append(b, 'g'), c.Bench)
	b = append(b, "|b"...)
	b = strconv.AppendUint(b, c.Budget, 10)
	b = append(b, "|s"...)
	b = strconv.AppendUint(b, c.Seed, 10)
	b = append(b, "|ba"...)
	return strconv.AppendInt(b, int64(batchSize), 10)
}

// sameStream reports whether c and o observe the same instruction
// stream, and so share a group key.
func (c *Coord) sameStream(o *Coord) bool {
	return c.Bench == o.Bench && c.Budget == o.Budget && c.Seed == o.Seed
}

// setGroups gives every cell its fusion group key. Cells observing one
// stream are adjacent in the expansion and share a key, and all keys of
// one compile share one string, so compiling costs no allocation per
// stream and running the cells none per cell.
func setGroups(cells []Cell, batchSize int) {
	var tmp [96]byte
	newStream := func(i int) bool { return i == 0 || !cells[i].Coord.sameStream(&cells[i-1].Coord) }
	n := 0
	for i := range cells {
		if newStream(i) {
			n += len(cells[i].Coord.appendGroupKey(tmp[:0], batchSize))
		}
	}
	buf := make([]byte, 0, n)
	for i := range cells {
		if newStream(i) {
			buf = cells[i].Coord.appendGroupKey(buf, batchSize)
		}
	}
	all, key := string(buf), ""
	for i := range cells {
		if newStream(i) {
			n := len(cells[i].Coord.appendGroupKey(tmp[:0], batchSize))
			key, all = all[:n], all[n:]
		}
		cells[i].group = key
	}
}
