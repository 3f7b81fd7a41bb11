package grid_test

import (
	"testing"

	_ "dynloop/internal/expt" // registers the paper's grids
	"dynloop/internal/grid"
)

// serveGrids are the registered grids the perfbench serve-mix workload
// names, compiled at its budget and seed.
var serveGrids = []string{"table1", "fig4", "fig6", "table2", "baseline/branch", "ablation/oneshots"}

var serveCfg = grid.Config{Budget: 100_000, Seed: 1}

// compileServeGrids compiles every serve grid once with compile
// (grid.Compile or grid.CompileUncached) and returns the total cell
// count.
func compileServeGrids(tb testing.TB, compile func(grid.Config, grid.Spec) ([]grid.Cell, grid.Spec, error)) int {
	n := 0
	for _, name := range serveGrids {
		e, ok := grid.Lookup(name)
		if !ok {
			tb.Fatalf("no registered grid %q", name)
		}
		cells, _, err := compile(serveCfg, e.Spec)
		if err != nil {
			tb.Fatal(err)
		}
		n += len(cells)
	}
	return n
}

// BenchmarkCompile measures one uncached compile of each serve grid
// per op: what a served named-grid request cost on both ends of the
// wire before registered grids were memoized, and what a memo miss
// still costs.
func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		compileServeGrids(b, grid.CompileUncached)
	}
}

// TestCellKeysMatchReference pins compiled keys to the persisted
// format: cell keys and group keys are the store's addresses, so every
// one must equal what the fmt formula the store was written with builds
// (see checkCellKeys), as must every label. It covers every registered
// grid, an ad-hoc spec grid sweeping every engine axis and an ad-hoc
// CLS sweep, at three configs.
func TestCellKeysMatchReference(t *testing.T) {
	cfgs := []grid.Config{
		{},
		{Budget: 100_000, Seed: 7, BatchSize: 3, CLSCapacity: -1},
		{Budget: 123, Seed: 1 << 63, CLSCapacity: 4},
	}
	adhoc := grid.Spec{
		Kind:       "spec",
		Benchmarks: []string{"swim", "li"},
		Policies:   []string{"idle", "str", "str3", "STR(12)"},
		TUs:        []int{0, 4, 16},
		LETCaps:    []int{0, 64},
		NestRules:  []string{"starvation", "static"},
		Exclusion: []grid.ExclusionSpec{
			{},
			{Enabled: true, Threshold: 0.85, MinResolved: 8, Capacity: 16},
			{Enabled: true, Threshold: 1e-7},
		},
	}
	for i, cfg := range cfgs {
		for _, name := range grid.Names() {
			e, _ := grid.Lookup(name)
			// From the second config on, the compile is repeated, so the
			// second round reads the memo.
			for range min(i+1, 2) {
				cells, rs, err := grid.Compile(cfg, e.Spec)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := grid.CheckCellKeys(rs.Kind, cfg.BatchSize, cells); err != nil {
					t.Errorf("grid %s, config %+v: %v", name, cfg, err)
				}
			}
		}
		_, rs, err := grid.Compile(cfg, adhoc)
		if err != nil {
			t.Fatal(err)
		}
		// Validate caps thresholds at 1; past the cap the key would
		// switch to exponent form, so expand one there too.
		rs.Exclusion = append(rs.Exclusion, grid.ExclusionSpec{Enabled: true, Threshold: 1e21})
		cells, err := grid.Expand(cfg, rs)
		if err != nil {
			t.Fatal(err)
		}
		if err := grid.CheckCellKeys(rs.Kind, cfg.BatchSize, cells); err != nil {
			t.Errorf("ad-hoc spec grid, config %+v: %v", cfg, err)
		}
		cells, rs, err = grid.Compile(cfg, grid.Spec{Kind: "clssize", Benchmarks: []string{"swim"}, CLS: []int{-1, 0, 2, 16}})
		if err != nil {
			t.Fatal(err)
		}
		if err := grid.CheckCellKeys(rs.Kind, cfg.BatchSize, cells); err != nil {
			t.Errorf("ad-hoc clssize grid, config %+v: %v", cfg, err)
		}
	}
}

// maxCompileAllocsPerCell pins Compile's allocations per cell over the
// serve grids: a key, a label and a pass closure per cell, plus the
// per-compile slices — 3.25 measured (702 over 216 cells), with under
// 10% headroom.
const maxCompileAllocsPerCell = 3.5

// TestCompileAllocs pins what one uncached compile of the serve grids
// allocates per cell; formatting keys through fmt again costs several
// times this.
func TestCompileAllocs(t *testing.T) {
	cells := compileServeGrids(t, grid.CompileUncached)
	avg := testing.AllocsPerRun(20, func() { compileServeGrids(t, grid.CompileUncached) })
	if perCell := avg / float64(cells); perCell > maxCompileAllocsPerCell {
		t.Fatalf("Compile allocates %.2f objects per cell over %d cells, want at most %.2f",
			perCell, cells, maxCompileAllocsPerCell)
	}
}
