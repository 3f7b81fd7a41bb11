package grid

import (
	"context"
	"reflect"
	"strconv"
	"strings"

	"dynloop/internal/trace"
)

// GroupPasses builds the pass set of one fused group holding cells, as
// runCells builds it, and reports how many detectors and shared LETs it
// holds; ok is false when a cell is composite (it owns its traversals
// instead).
func GroupPasses(cells ...Cell) (passes []trace.Pass, detectors, lets int, ok bool) {
	g := newGroup()
	for _, c := range cells {
		if c.attach == nil {
			return nil, 0, 0, false
		}
		c.attach(g)
	}
	for _, d := range g.dets {
		lets += len(d.lets)
	}
	return g.passes, len(g.dets), lets, true
}

// RunPrivate is the oracle Run is checked against. Every fusable cell
// runs its own traversal — its own group, so its own detectors and
// LETs — on the reference interpreter with full-plane delivery;
// composite cells run as Run runs them. Values return in cell order.
func RunPrivate(ctx context.Context, cfg Config, s Spec) ([]any, error) {
	cells, _, err := Compile(cfg, s)
	if err != nil {
		return nil, err
	}
	pool := cfg.pool()
	values := make([]any, len(cells))
	for i, c := range cells {
		if c.attach == nil {
			if values[i], err = c.run(ctx, &cfg, pool); err != nil {
				return nil, err
			}
			continue
		}
		g := newGroup()
		finish := c.attach(g)
		u, err := c.bench.Build(c.Coord.Seed)
		if err != nil {
			return nil, err
		}
		cpu := u.NewCPU()
		cpu.SetBatchSize(cfg.BatchSize)
		cpu.SetReference(true)
		b := trace.NewBroadcast(0, g.passes...)
		b.Init()
		if _, err := cpu.Run(c.Coord.Budget, trace.ForceFullPlane(b)); err != nil {
			return nil, err
		}
		b.Finalize()
		if values[i], err = finish(); err != nil {
			return nil, err
		}
	}
	return values, nil
}

// GroupDetectors returns how many detectors fused groups have built in
// this process.
func GroupDetectors() uint64 { return groupDetectors.Load() }

// CheckCellKeys compares every cell's key, label and group key with
// the reference formulas (see checkCellKeys).
func CheckCellKeys(kind string, batchSize int, cells []Cell) error {
	return checkCellKeys(kind, batchSize, cells)
}

// Expand builds the cells of an already-resolved spec without
// validating it again, so a test can reach axis values Validate
// rejects.
func Expand(cfg Config, rs Spec) ([]Cell, error) { return expand(cfg, &rs) }

// CompileUncached is Compile without the memo: what a registered grid
// costs to compile on a miss.
func CompileUncached(cfg Config, s Spec) ([]Cell, Spec, error) { return compile(cfg, s) }

// MemoKeyFields names the memo key's fields.
func MemoKeyFields() []string {
	t := reflect.TypeOf(memoKey{})
	out := make([]string, t.NumField())
	for i := range out {
		out[i] = t.Field(i).Name
	}
	return out
}

// MemoLen reports how many compiled grids and cells the memo holds.
func MemoLen() (grids, cells int) {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	n := 0
	for _, e := range memo.m {
		n += len(e.cells)
	}
	if n != memo.cells {
		panic("grid: memo cell count out of step with its entries")
	}
	return len(memo.m), memo.cells
}

// ResetMemo empties the memo.
func ResetMemo() {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	clear(memo.m)
	memo.cells = 0
}

// MemoEntry is one compiled grid the memo holds, with the registered
// spec and the config it was compiled from.
type MemoEntry struct {
	Spec     Spec // the registered spec
	Cfg      Config
	Version  int
	Cells    []Cell
	Resolved Spec
}

// MemoEntries lists the memo's compiled grids.
func MemoEntries() []MemoEntry {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	var out []MemoEntry
	for k, e := range memo.m {
		reg, _ := Lookup(k.name)
		cfg := Config{Budget: k.Budget, Seed: k.Seed, CLSCapacity: k.CLSCapacity, BatchSize: k.BatchSize}
		for rest := k.Benchmarks; rest != ""; {
			// Each part is "|len:name" (see appendPart).
			colon := strings.IndexByte(rest, ':')
			n, err := strconv.Atoi(rest[1:colon])
			if err != nil {
				panic(err)
			}
			cfg.Benchmarks = append(cfg.Benchmarks, rest[colon+1:colon+1+n])
			rest = rest[colon+1+n:]
		}
		out = append(out, MemoEntry{Spec: reg.Spec, Cfg: cfg, Version: k.version, Cells: e.cells, Resolved: e.rs})
	}
	return out
}

// SpecEqual reports whether two specs declare the same grid, as the
// memo compares a spec with the registered one.
func SpecEqual(a, b Spec) bool { return a.equal(&b) }

// The memo's bounds.
const (
	MaxMemoGrids = maxMemoGrids
	MaxMemoCells = maxMemoCells
)
