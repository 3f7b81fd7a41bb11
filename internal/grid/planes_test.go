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
// except fig8's, whose data-speculation collector reads the data tap
// beside the control plane; the oracle cell's detectors are
// control-only too. No cell and no traversal of a render of every
// registered grid uses the full event plane, and only fig8 interprets
// with the tap. This keeps the end-to-end plane-equivalence suite from
// passing vacuously, and fails as soon as a new pass pulls a grid back
// onto the full plane.
func TestCtlOnlyCellPlanes(t *testing.T) {
	tap := trace.PlaneCtl | trace.PlaneTap
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
			want = tap
		}
		for _, c := range cells {
			passes, _, _, ok := grid.GroupPasses(c)
			if !ok {
				continue
			}
			for _, p := range passes {
				if got := trace.PlanesOf(p); got != want {
					t.Errorf("%s cell %s: planes = %v, want %v", name, c.Label, got, want)
				}
			}
		}
	}

	// The oracle cell is composite; its detectors, built as it builds
	// them, must be control-only as well.
	rec := spec.NewOracleRecorder()
	for i, d := range []*loopdet.Detector{
		harness.NewObserverPass(16, rec),
		harness.NewObserverPass(16, spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STR()}),
			spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STR(), OracleIters: rec.Counts()})),
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
			ctl0, tap0, full0 := interp.PlaneRuns()
			res, err := grid.Run(ctx, cfg, e.Spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, err := e.Render(res); err != nil {
				t.Fatalf("%s render: %v", name, err)
			}
			ctl1, tap1, full1 := interp.PlaneRuns()
			ctl, tap, full := ctl1-ctl0, tap1-tap0, full1-full0
			if e.Spec.Kind == "fig8" {
				if tap == 0 || ctl != 0 || full != 0 {
					t.Errorf("%s: %d control-plane, %d tap and %d full-plane runs, want only tap runs", name, ctl, tap, full)
				}
				continue
			}
			if ctl == 0 || tap != 0 || full != 0 {
				t.Errorf("%s: %d control-plane, %d tap and %d full-plane runs, want only control-plane runs", name, ctl, tap, full)
			}
		}
	})
}
