package grid_test

import (
	"context"
	"reflect"
	"testing"

	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/trace"
)

// TestSharedMatchesPrivate pins that sharing a fused group's detectors
// and LETs is exact: every registered grid, over every workload at two
// seeds, computes the same values fused (one detector per CLS capacity
// and plane, one LET per engine LET capacity) as with NoFuse, where
// every cell is its own group with a detector and a LET of its own.
func TestSharedMatchesPrivate(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every registered grid twice at two seeds")
	}
	ctx := context.Background()
	for _, seed := range []uint64{1, 1009} {
		for _, name := range grid.Names() {
			e, _ := grid.Lookup(name)
			run := func(noFuse bool) []any {
				cfg := grid.Config{Budget: 20_000, Seed: seed, NoFuse: noFuse, Parallel: 2}
				res, err := grid.Run(ctx, cfg, e.Spec)
				if err != nil {
					t.Fatalf("%s seed %d noFuse=%v: %v", name, seed, noFuse, err)
				}
				return res.Values
			}
			shared, private := run(false), run(true)
			for i := range shared {
				if !reflect.DeepEqual(shared[i], private[i]) {
					t.Errorf("%s seed %d cell %d: shared %+v, private %+v", name, seed, i, shared[i], private[i])
					break
				}
			}
		}
	}
}

// renderGroupDetectors is how many detectors the fused groups of one
// paper render (expt.All, one shared runner) build: 17 per workload.
// That is one per stream a grid traverses — Figure 5 traverses two, at
// the full and the quarter budget — plus three for the CLS ablation's
// further capacities. The branch predictors need no detector, the
// oracle ablation owns its traversals, and Table 2's cells are served
// from Figure 6's and 7's.
const renderGroupDetectors = 17 * 18

// TestGroupDetectorCounts pins how many detectors and LETs fused groups
// build: one of each for a Figure 7 group, one per resolved capacity
// when cells sweep the CLS, and renderGroupDetectors for a whole render.
func TestGroupDetectorCounts(t *testing.T) {
	compile := func(name string, s grid.Spec) []grid.Cell {
		t.Helper()
		s.Benchmarks = []string{"swim"}
		cells, _, err := grid.Compile(grid.Config{Budget: 1000}, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return cells
	}
	fig7, _ := grid.Lookup("fig7")
	cells := compile("fig7", fig7.Spec)
	if _, dets, lets, _ := grid.GroupPasses(cells...); dets != 1 || lets != 1 || len(cells) < 2 {
		t.Errorf("fig7 group of %d cells: %d detectors and %d LETs, want 1 and 1", len(cells), dets, lets)
	}
	// Capacity 0 is the default 16; -1 is unbounded.
	cells = compile("clssize", grid.Spec{Kind: "clssize", CLS: []int{0, 16, -1, 2}})
	if _, dets, _, _ := grid.GroupPasses(cells...); dets != 3 {
		t.Errorf("clssize group at capacities 0, 16, -1 and 2: %d detectors, want 3", dets)
	}
	fig8, _ := grid.Lookup("fig8")
	passes, dets, _, _ := grid.GroupPasses(compile("fig8", fig8.Spec)...)
	if dets != 1 || trace.PlanesOf(passes[0]) != trace.PlaneCtl|trace.PlaneData {
		t.Errorf("fig8 group: %d detectors, planes %v; want one full-plane detector", dets, trace.PlanesOf(passes[0]))
	}

	before := grid.GroupDetectors()
	if _, err := expt.All(context.Background(), expt.Config{Budget: 1000, Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	if got := grid.GroupDetectors() - before; got != renderGroupDetectors {
		t.Errorf("a render built %d group detectors, want %d", got, renderGroupDetectors)
	}
}
