package expt

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"dynloop/internal/harness"
	"dynloop/internal/interp"
	"dynloop/internal/runner"
	"dynloop/internal/spec"
	"dynloop/internal/workload"
)

// The Config-default and cell-key tests live with the machinery in
// internal/grid now (grid_test.go); this file covers the drivers.

// perCellDeliveries is how many traversals the render in
// TestFusionByteIdenticalAndFewerTraversals delivers when every cell
// traverses its stream alone: one per executed fusable cell, two per
// oracle cell (measured at 1 worker and at 8).
const perCellDeliveries = 104

// TestFusionByteIdenticalAndFewerTraversals is the acceptance property
// of the fused pass pipeline: the full rendered report is byte-identical
// at 1 worker and at 8 while delivering at least 3× fewer traversals
// than per-cell execution (perCellDeliveries). A delivery is an
// interpreted traversal or a control-plane replay: both routes replay
// every stream after its first traversal on the runner, so interpreted
// traversals alone are equal (see TestRenderInterpretsEachStreamOnce).
// Byte identity with per-cell execution on the reference interpreter is
// pinned per registered grid in internal/grid
// (TestReferencePathByteIdentical, TestSharedMatchesPrivate).
func TestFusionByteIdenticalAndFewerTraversals(t *testing.T) {
	base := Config{Budget: 50_000, Benchmarks: []string{"m88ksim", "perl"}}
	var ref string
	for _, parallel := range []int{1, 8} {
		cfg := base
		cfg.Parallel = parallel
		before := harness.Traversals() + interp.CtlReplays()
		out, err := All(context.Background(), cfg)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		fused := harness.Traversals() + interp.CtlReplays() - before
		if ref == "" {
			ref = out
		} else if out != ref {
			t.Fatalf("fused report at parallel=%d differs from parallel=1:\n%s\nvs\n%s", parallel, out, ref)
		}
		if fused*3 > perCellDeliveries {
			t.Errorf("parallel=%d: fused run delivered %d traversals, per-cell %d — want >=3x fewer",
				parallel, fused, perCellDeliveries)
		}
	}
}

// TestRenderInterpretsEachStreamOnce pins the runner's recording tier
// end to end: an expt.All render on a fresh runner interprets each
// (benchmark, seed) stream exactly once on the control plane, plus once
// on the control plane with the data tap for Figure 8, never on the
// full plane, and replays every other traversal. A second fresh runner
// keeps no recordings of the first and interprets the same number
// again.
func TestRenderInterpretsEachStreamOnce(t *testing.T) {
	cfg := Config{Budget: 20_000}
	streams := uint64(len(workload.Names()))
	var first string
	for rep := 0; rep < 2; rep++ {
		trav0, replays0 := harness.Traversals(), interp.CtlReplays()
		ctl0, tap0, full0 := interp.PlaneRuns()
		out, err := All(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctl1, tap1, full1 := interp.PlaneRuns()
		trav, replays := harness.Traversals()-trav0, interp.CtlReplays()-replays0
		if ctl, tap, full := ctl1-ctl0, tap1-tap0, full1-full0; ctl != streams || tap != streams || full != 0 || trav != 2*streams {
			t.Errorf("render %d: %d traversals (%d control-plane, %d tap, %d full-plane), want %d (%d control-plane, %d tap, none full-plane)",
				rep, trav, ctl, tap, full, 2*streams, streams, streams)
		}
		if replays == 0 {
			t.Errorf("render %d replayed nothing", rep)
		}
		if rep == 0 {
			first = out
		} else if out != first {
			t.Errorf("render %d differs from render 0", rep)
		}
	}
}

// TestParallelEqualsSerial: a parallel Table1 run must equal a repeat of
// itself (each job owns its unit, so parallelism cannot leak).
func TestParallelEqualsSerial(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Budget: 60_000}
	a, err := Table1(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table1(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d diverged:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestAllDriversParallelDeterminism is the acceptance property of the
// orchestrator: the full rendered report — every table, figure, baseline
// and ablation — is byte-identical at 1 worker and at 8.
func TestAllDriversParallelDeterminism(t *testing.T) {
	base := Config{Budget: 50_000, Benchmarks: []string{"m88ksim", "perl"}}
	render := func(parallel int) string {
		cfg := base
		cfg.Parallel = parallel
		out, err := All(context.Background(), cfg)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return out
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Fatalf("report diverges between -parallel 1 and -parallel 8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "Table 1") || !strings.Contains(seq, "Figure 7") || !strings.Contains(seq, "oracle") {
		t.Fatalf("report is missing sections:\n%s", seq)
	}
}

// TestSharedRunnerDeduplicates: run Fig6 then Fig7 on one Runner — the
// STR column of Figure 7 is exactly Figure 6, so every one of those
// cells must come from the cache, and both figures must agree.
func TestSharedRunnerDeduplicates(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Budget: 50_000, Benchmarks: []string{"swim", "compress"}, Runner: runner.New(runner.Config{Workers: 4})}
	f6, err := Fig6(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after6 := cfg.Runner.Stats()
	f7, err := Fig7(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after7 := cfg.Runner.Stats()
	// Fig7 grid: 2 benches × 5 policies × 4 TUs = 40 cells, of which the
	// 8 STR cells already ran in Fig6.
	executedByFig7 := after7.Executed - after6.Executed
	if executedByFig7 != 32 {
		t.Fatalf("Fig7 executed %d cells, want 32 (8 STR cells cached)", executedByFig7)
	}
	hits := after7.CacheHits + after7.Coalesced - after6.CacheHits - after6.Coalesced
	if hits != 8 {
		t.Fatalf("Fig7 hit the cache %d times, want 8", hits)
	}
	// And the deduplicated numbers agree across the two figures.
	strAvg := map[int]float64{}
	for _, r := range f6 {
		for tus, tpc := range r.TPC {
			strAvg[tus] += tpc / float64(len(f6))
		}
	}
	for _, c := range f7 {
		if c.Policy != "STR" {
			continue
		}
		if got := strAvg[c.TUs]; got != c.AvgTPC {
			t.Fatalf("STR@%dTU: fig6 avg %v != fig7 avg %v", c.TUs, got, c.AvgTPC)
		}
	}
}

// TestDriverCancellation: a cancelled context aborts a driver with the
// context error.
func TestDriverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Table1(ctx, Config{Budget: 50_000}); err == nil {
		t.Fatal("cancelled Table1 returned no error")
	}
	if _, err := All(ctx, Config{Budget: 50_000, Benchmarks: []string{"swim"}}); err == nil {
		t.Fatal("cancelled All returned no error")
	}
}

// TestSweepGrid covers the sweep driver: grid shape, defaults, render.
func TestSweepGrid(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Budget: 50_000, Benchmarks: []string{"swim", "li"}}
	rows, err := Sweep(ctx, cfg, SweepSpec{Policies: []spec.Policy{spec.STR(), spec.Idle()}, TUs: []int{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*2*2 {
		t.Fatalf("grid size %d, want 8", len(rows))
	}
	if rows[0].Bench != "swim" || rows[0].Policy != "STR" || rows[0].TUs != 2 {
		t.Fatalf("unexpected first cell: %+v", rows[0])
	}
	for _, r := range rows {
		if r.M.TPC() < 1.0-1e-9 {
			t.Fatalf("cell %s/%s/%d has TPC %v < 1", r.Bench, r.Policy, r.TUs, r.M.TPC())
		}
	}
	if RenderSweep(rows) == "" {
		t.Fatal("empty sweep render")
	}
	n, err := SweepSpec{}.GridSpec().Size(cfg)
	if err != nil || n != 2*5*4 {
		t.Fatalf("default grid size = %d (%v), want 40", n, err)
	}
	pols, err := ParsePolicies([]string{"str3", "idle"})
	if err != nil {
		t.Fatal(err)
	}
	if got := (SweepSpec{Policies: pols}).GridSpec().Policies; !reflect.DeepEqual(got, []string{"STR(3)", "IDLE"}) {
		t.Fatalf("lowered policies %q, want canonical names", got)
	}
	if _, err := ParsePolicies([]string{"bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestDriversSmoke exercises every table/figure/ablation driver on a
// small subset so the drivers themselves are covered in-package (the
// root integration tests exercise them through the facade).
func TestDriversSmoke(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Budget: 80_000, Benchmarks: []string{"m88ksim", "perl"}}
	if rows, err := Table1(ctx, cfg); err != nil || len(rows) != 2 {
		t.Fatalf("table1: %v", err)
	} else if RenderTable1(rows) == "" {
		t.Fatal("empty render")
	}
	if rows, err := Table2(ctx, cfg); err != nil || len(rows) != 2 {
		t.Fatalf("table2: %v", err)
	} else if RenderTable2(rows) == "" {
		t.Fatal("empty render")
	}
	if pts, err := Fig4(ctx, cfg); err != nil || RenderFig4(pts) == "" {
		t.Fatalf("fig4: %v", err)
	}
	if rows, err := Fig5(ctx, cfg); err != nil || RenderFig5(rows) == "" {
		t.Fatalf("fig5: %v", err)
	}
	if rows, err := Fig6(ctx, cfg); err != nil || RenderFig6(rows) == "" {
		t.Fatalf("fig6: %v", err)
	}
	if cells, err := Fig7(ctx, cfg); err != nil || RenderFig7(cells) == "" {
		t.Fatalf("fig7: %v", err)
	}
	if rows, avg, err := Fig8(ctx, cfg); err != nil || RenderFig8(rows, avg) == "" {
		t.Fatalf("fig8: %v", err)
	}
	if rows, err := BaselineBranchPred(ctx, cfg); err != nil || RenderBaseline(rows) == "" {
		t.Fatalf("baseline: %v", err)
	}
	if rows, err := BaselineTaskPred(ctx, cfg); err != nil || RenderTaskPred(rows) == "" {
		t.Fatalf("taskpred: %v", err)
	}
	if rows, err := AblationCLSSize(ctx, cfg, []int{4}); err != nil || RenderCLSSize(rows) == "" {
		t.Fatalf("cls: %v", err)
	}
	if rows, err := AblationLETCapacity(ctx, cfg, []int{4}); err != nil || RenderLETCapacity(rows) == "" {
		t.Fatalf("let: %v", err)
	}
	if rows, err := AblationReplacement(ctx, cfg, []int{4}); err != nil || RenderReplacement(rows) == "" {
		t.Fatalf("replacement: %v", err)
	}
	if rows, err := AblationOneShots(ctx, cfg); err != nil || RenderOneShots(rows) == "" {
		t.Fatalf("oneshots: %v", err)
	}
	if rows, err := AblationNestRule(ctx, cfg, []int{4}); err != nil || RenderNestRule(rows) == "" {
		t.Fatalf("nestrule: %v", err)
	}
	if rows, err := AblationExclusion(ctx, cfg, 0.85); err != nil || RenderExclusion(rows) == "" {
		t.Fatalf("exclusion: %v", err)
	}
	if rows, err := AblationOracle(ctx, cfg); err != nil || RenderOracle(rows) == "" {
		t.Fatalf("oracle: %v", err)
	}
}

// TestOracleBeatsBlindSTR: the oracle ablation's defining property.
func TestOracleBeatsBlindSTR(t *testing.T) {
	rows, err := AblationOracle(context.Background(), Config{Budget: 150_000, Benchmarks: []string{"applu"}})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.OracleHit < r.STRHit {
		t.Fatalf("oracle hit %.1f < STR hit %.1f", r.OracleHit, r.STRHit)
	}
	if r.OracleTPC+1e-9 < r.STRTPC {
		t.Fatalf("oracle TPC %.2f < STR TPC %.2f", r.OracleTPC, r.STRTPC)
	}
}
