package grid_test

import (
	"context"
	"testing"

	_ "dynloop/internal/expt" // registers the paper's grids
	"dynloop/internal/grid"
	"dynloop/internal/harness"
	"dynloop/internal/interp"
	"dynloop/internal/loopdet"
	"dynloop/internal/looptab"
	"dynloop/internal/runner"
	"dynloop/internal/spec"
	"dynloop/internal/trace"
)

// TestCtlOnlyCellPlanes pins which grid cells negotiate which event
// plane: every fusable cell of every registered grid is control-only
// except fig8's, whose data-speculation collector reads the data facet;
// the oracle cell's detectors are control-only too. A render of every
// registered grid then interprets on the full plane only while fig8
// runs. This keeps the end-to-end plane-equivalence suite from passing
// vacuously with every traversal on the full plane, and fails as soon
// as a new stream observer pulls a grid back onto it.
func TestCtlOnlyCellPlanes(t *testing.T) {
	both := trace.PlaneCtl | trace.PlaneData
	det := harness.NewObserverPass(16, looptab.NewTracker(16, 16))
	if got := trace.PlanesOf(det); got != trace.PlaneCtl {
		t.Fatalf("tracker-observed detector planes = %v, want ctl-only", got)
	}

	for _, name := range grid.Names() {
		e, _ := grid.Lookup(name)
		s := e.Spec
		s.Benchmarks = []string{"swim"}
		cells, rs, err := grid.Compile(grid.Config{Budget: 1000}, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := trace.PlaneCtl
		if rs.Kind == "fig8" {
			want = both
		}
		for _, c := range cells {
			p, ok := grid.CellPass(c)
			if !ok {
				continue
			}
			if got := trace.PlanesOf(p); got != want {
				t.Errorf("%s cell %s: planes = %v, want %v", name, c.Label, got, want)
			}
		}
	}

	// The oracle cell is composite; its detectors, built as it builds
	// them, must be control-only as well.
	rec := spec.NewOracleRecorder()
	for i, d := range []*loopdet.Detector{
		harness.NewObserverPass(16, rec),
		harness.NewObserverPass(16, spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STR()})),
		harness.NewObserverPass(16, spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STR(), OracleIters: rec.Counts()})),
	} {
		if got := trace.PlanesOf(d); got != trace.PlaneCtl {
			t.Errorf("oracle detector %d planes = %v, want ctl-only", i, got)
		}
	}

	t.Run("render", func(t *testing.T) {
		ctx := context.Background()
		for _, name := range grid.Names() {
			e, _ := grid.Lookup(name)
			cfg := grid.Config{Budget: 10_000, Runner: runner.New(runner.Config{Workers: 1})}
			ctl0, full0 := interp.PlaneRuns()
			res, err := grid.Run(ctx, cfg, e.Spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, err := e.Render(res); err != nil {
				t.Fatalf("%s render: %v", name, err)
			}
			ctl1, full1 := interp.PlaneRuns()
			ctl, full := ctl1-ctl0, full1-full0
			if e.Spec.Kind == "fig8" {
				if full == 0 || ctl != 0 {
					t.Errorf("%s: %d full-plane and %d control-plane runs, want only full-plane", name, full, ctl)
				}
				continue
			}
			if full != 0 || ctl == 0 {
				t.Errorf("%s: %d full-plane and %d control-plane runs, want only control-plane", name, full, ctl)
			}
		}
	})
}
