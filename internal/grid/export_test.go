package grid

import (
	"context"
	"reflect"
	"strconv"
	"strings"

	"dynloop/internal/datapred"
	"dynloop/internal/datapred/datapredtest"
	"dynloop/internal/runner"
	"dynloop/internal/trace"
)

// GroupPasses builds the pass set of one fused group holding cells, as
// runCells builds it, and reports how many detectors and engine banks
// it holds; ok is false when a cell is composite (it owns its
// traversals instead).
func GroupPasses(cells ...Cell) (passes []trace.Pass, detectors, banks int, ok bool) {
	g := newGroup()
	for _, c := range cells {
		if c.attach == nil {
			return nil, 0, 0, false
		}
		c.attach(g)
	}
	for _, d := range g.dets {
		banks += len(d.banks)
	}
	return g.passes, len(g.dets), banks, true
}

// Groups splits fusable cells into their fusion groups, in first-cell
// order; composite cells are left out.
func Groups(cells []Cell) [][]Cell {
	var out [][]Cell
	at := map[string]int{}
	for _, c := range cells {
		if c.attach == nil {
			continue
		}
		i, ok := at[c.group]
		if !ok {
			i = len(out)
			at[c.group] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], c)
	}
	return out
}

// RunGroup executes one fusion group's cells as Run does on a cache
// miss, through pool's recordings, and returns their values.
func RunGroup(ctx context.Context, cfg Config, pool *runner.Runner, cells []Cell) ([]any, error) {
	idx := make([]int, len(cells))
	for i := range idx {
		idx[i] = i
	}
	out := make([]any, len(cells))
	if err := runGroup(ctx, &cfg, pool, cells, idx, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunPrivate is the oracle Run is checked against. Every fusable cell
// runs its own traversal — its own group, so its own detectors and
// banks — on the reference interpreter with full-plane delivery;
// composite cells run as Run runs them. The full plane carries no data
// tap, so a Figure 8 cell observes through the per-instruction
// collector of package datapredtest instead of its own, fed by
// Collector.Feed. Values return in cell order.
func RunPrivate(ctx context.Context, cfg Config, s Spec) ([]any, error) {
	cells, rs, err := Compile(cfg, s)
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
		var ref *datapredtest.Collector
		var finish func() (any, error)
		if rs.Kind == "fig8" {
			ref = datapredtest.NewCollector(datapred.Config{})
			g.observe(c.Coord.CLS, ref)
			finish = func() (any, error) { return Fig8Row{Bench: c.bench.Name, S: ref.Summary()}, nil }
		} else {
			finish = c.attach(g)
		}
		u, err := c.bench.Build(c.Coord.Seed)
		if err != nil {
			return nil, err
		}
		cpu := u.NewCPU()
		cpu.SetBatchSize(cfg.BatchSize)
		b := trace.NewBroadcast(0, g.passes...)
		sink := trace.ForceFullPlane(b)
		if ref != nil {
			// The group holds only ref's detector; the broadcast still
			// initialises and finalises it.
			sink = ref.Feed(g.detector(c.Coord.CLS, false))
		}
		b.Init()
		if _, err := cpu.Run(c.Coord.Budget, sink); err != nil {
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

// GroupBanks returns how many engine banks fused groups have built in
// this process.
func GroupBanks() uint64 { return groupBanks.Load() }

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
