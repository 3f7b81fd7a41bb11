package grid

import (
	"slices"
	"sync"

	"dynloop/internal/runner"
)

// Bounds of the compiled-grid memo. A render of the paper's evaluation
// compiles its 16 registered grids (1,116 cells) once each; a daemon
// serving named grids at ever new seeds evicts the least recently used
// compiled grid instead of growing.
const (
	maxMemoGrids = 64
	maxMemoCells = 4096
)

// memoKey addresses a compiled registered grid. A registered grid's
// compiled cells and resolved spec are a pure function of its name (the
// spec, checked field by field against the registry), the schema
// version the keys are stamped with, and the Config fields compile
// reads; every other Config field is read at run time only. Fields
// named after a Config field hold that field's value: budget and seed
// resolved, the benchmark subset length-prefixed.
// TestCompileMemoKeyCoversConfig pairs them with Config by name.
type memoKey struct {
	name        string
	version     int
	Budget      uint64
	Seed        uint64
	Benchmarks  string
	CLSCapacity int
	BatchSize   int
}

// memoEntry is one compiled grid. Everything but used is read-only
// once the entry is installed.
type memoEntry struct {
	cells []Cell
	rs    Spec
	jobs  []runner.GroupJob[any] // the cells' fusion jobs (see groupJobs)
	used  uint64                 // recency stamp for LRU eviction
}

// memo holds compiled registered grids, process wide.
var memo = struct {
	mu    sync.Mutex
	m     map[memoKey]*memoEntry
	cells int // cells held over all entries
	tick  uint64
}{m: make(map[memoKey]*memoEntry)}

// memoKeyOf returns the memo key of compiling s under cfg; ok is false
// unless s equals a registered grid's spec in every field. Inline specs
// (writes, fuzz inputs, ad-hoc sweeps) are not memoized: each is its
// own grid, and remembering them would only evict the registered ones.
func memoKeyOf(cfg *Config, s *Spec) (memoKey, bool) {
	if s.Name == "" {
		return memoKey{}, false
	}
	e, ok := Lookup(s.Name)
	if !ok || !e.Spec.equal(s) {
		return memoKey{}, false
	}
	k := memoKey{
		name:        s.Name,
		version:     CellSchemaVersion,
		Budget:      cfg.budget(),
		Seed:        cfg.seed(),
		CLSCapacity: cfg.CLSCapacity,
		BatchSize:   cfg.BatchSize,
	}
	if len(cfg.Benchmarks) > 0 {
		var b []byte
		for _, name := range cfg.Benchmarks {
			b = appendPart(b, name)
		}
		k.Benchmarks = string(b)
	}
	return k, true
}

// memoGet returns the compiled grid at k, if held.
func memoGet(k memoKey) (*memoEntry, bool) {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	e, ok := memo.m[k]
	if !ok {
		return nil, false
	}
	memo.tick++
	e.used = memo.tick
	return e, true
}

// memoPut installs a fresh compile at k and returns what callers
// share: the entry another caller installed first, the new one, or,
// when the grid alone exceeds the cell bound, the compile itself.
// Slices are clipped, so an append by a caller copies instead of
// writing into the shared backing array.
func memoPut(k memoKey, c *memoEntry) *memoEntry {
	if len(c.cells) > maxMemoCells {
		return c
	}
	memo.mu.Lock()
	defer memo.mu.Unlock()
	memo.tick++
	if e, ok := memo.m[k]; ok {
		e.used = memo.tick
		return e
	}
	for len(memo.m) >= maxMemoGrids || memo.cells+len(c.cells) > maxMemoCells {
		var victim memoKey
		oldest := ^uint64(0)
		for k, e := range memo.m {
			if e.used < oldest {
				victim, oldest = k, e.used
			}
		}
		memo.cells -= len(memo.m[victim].cells)
		delete(memo.m, victim)
	}
	rs := &c.rs
	rs.Benchmarks, rs.Budgets, rs.BudgetDivs = slices.Clip(rs.Benchmarks), slices.Clip(rs.Budgets), slices.Clip(rs.BudgetDivs)
	rs.Seeds, rs.CLS, rs.TableSizes = slices.Clip(rs.Seeds), slices.Clip(rs.CLS), slices.Clip(rs.TableSizes)
	rs.Modes, rs.Policies, rs.TUs = slices.Clip(rs.Modes), slices.Clip(rs.Policies), slices.Clip(rs.TUs)
	rs.LETCaps, rs.NestRules, rs.Exclusion = slices.Clip(rs.LETCaps), slices.Clip(rs.NestRules), slices.Clip(rs.Exclusion)
	rs.Render.Metrics = slices.Clip(rs.Render.Metrics)
	c.cells, c.jobs = slices.Clip(c.cells), slices.Clip(c.jobs)
	c.used = memo.tick
	memo.m[k] = c
	memo.cells += len(c.cells)
	return c
}

// equal reports whether s and o declare the same grid: every field
// equal, a nil axis equal to an empty one (compile reads both as the
// default). TestSpecEqualCoversFields pins that every field is
// compared.
func (s *Spec) equal(o *Spec) bool {
	return s.Name == o.Name && s.Title == o.Title && s.Kind == o.Kind &&
		slices.Equal(s.Benchmarks, o.Benchmarks) && slices.Equal(s.Budgets, o.Budgets) &&
		slices.Equal(s.BudgetDivs, o.BudgetDivs) && slices.Equal(s.Seeds, o.Seeds) &&
		slices.Equal(s.CLS, o.CLS) && slices.Equal(s.TableSizes, o.TableSizes) &&
		slices.Equal(s.Modes, o.Modes) && slices.Equal(s.Policies, o.Policies) &&
		slices.Equal(s.TUs, o.TUs) && slices.Equal(s.LETCaps, o.LETCaps) &&
		slices.Equal(s.NestRules, o.NestRules) && slices.Equal(s.Exclusion, o.Exclusion) &&
		s.Render.Format == o.Render.Format && slices.Equal(s.Render.Metrics, o.Render.Metrics)
}
