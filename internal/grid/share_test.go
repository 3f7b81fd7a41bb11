package grid_test

import (
	"context"
	"reflect"
	"testing"

	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/trace"
)

// TestSharedMatchesPrivate pins that fusing cells is exact: every
// registered grid, over every workload at two seeds, computes the same
// values fused (one detector per CLS capacity and plane, one engine
// bank per LET capacity, one predecoded traversal per group on the
// narrowest plane) as RunPrivate, where every cell traverses its stream
// alone, with a detector and an engine of its own, on the reference
// interpreter and the full plane.
func TestSharedMatchesPrivate(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every registered grid twice at two seeds")
	}
	ctx := context.Background()
	for _, seed := range []uint64{1, 1009} {
		for _, name := range grid.Names() {
			e, _ := grid.Lookup(name)
			cfg := grid.Config{Budget: 20_000, Seed: seed, Parallel: 2}
			res, err := grid.Run(ctx, cfg, e.Spec)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			private, err := grid.RunPrivate(ctx, cfg, e.Spec)
			if err != nil {
				t.Fatalf("%s seed %d private: %v", name, seed, err)
			}
			if len(private) != len(res.Values) {
				t.Fatalf("%s seed %d: %d shared values, %d private", name, seed, len(res.Values), len(private))
			}
			for i := range res.Values {
				if !reflect.DeepEqual(res.Values[i], private[i]) {
					t.Errorf("%s seed %d cell %d: shared %+v, private %+v", name, seed, i, res.Values[i], private[i])
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

// renderGroupBanks is how many engine banks those groups build: 15 per
// workload, one per (detector, LET capacity) that carries engines.
// Figure 5 has two (full and quarter budget), Figures 6 and 7, the
// task-prediction baseline, the nest-rule and the exclusion ablations
// one each, the CLS ablation one per capacity (4) and the LET ablation
// one per LET capacity whose cell is not already cached (4). Each grid
// runs its own groups, so Figure 6's and 7's engines, for instance, are
// two banks on two detectors.
const renderGroupBanks = 15 * 18

// TestGroupDetectorCounts pins how many detectors and engine banks fused
// groups build: one of each for a Figure 7 group, one detector per
// resolved capacity when cells sweep the CLS, and renderGroupDetectors
// and renderGroupBanks for a whole render.
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
	if _, dets, banks, _ := grid.GroupPasses(cells...); dets != 1 || banks != 1 || len(cells) < 2 {
		t.Errorf("fig7 group of %d cells: %d detectors and %d banks, want 1 and 1", len(cells), dets, banks)
	}
	// Capacity 0 is the default 16; -1 is unbounded.
	cells = compile("clssize", grid.Spec{Kind: "clssize", CLS: []int{0, 16, -1, 2}})
	if _, dets, _, _ := grid.GroupPasses(cells...); dets != 3 {
		t.Errorf("clssize group at capacities 0, 16, -1 and 2: %d detectors, want 3", dets)
	}
	fig8, _ := grid.Lookup("fig8")
	passes, dets, _, _ := grid.GroupPasses(compile("fig8", fig8.Spec)...)
	if dets != 1 || trace.PlanesOf(passes[0]) != trace.PlaneCtl|trace.PlaneTap {
		t.Errorf("fig8 group: %d detectors, planes %v; want one detector on the control plane with the tap", dets, trace.PlanesOf(passes[0]))
	}

	detsBefore, banksBefore := grid.GroupDetectors(), grid.GroupBanks()
	if _, err := expt.All(context.Background(), expt.Config{Budget: 1000, Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	if got := grid.GroupDetectors() - detsBefore; got != renderGroupDetectors {
		t.Errorf("a render built %d group detectors, want %d", got, renderGroupDetectors)
	}
	if got := grid.GroupBanks() - banksBefore; got != renderGroupBanks {
		t.Errorf("a render built %d engine banks, want %d", got, renderGroupBanks)
	}
}
