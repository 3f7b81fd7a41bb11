package expt

import (
	"context"
	"testing"

	"dynloop/internal/grid"
	"dynloop/internal/harness"
	"dynloop/internal/runner"
	"dynloop/internal/store"
)

// storeRunner returns a fresh Runner backed by a store opened in dir.
func storeRunner(t *testing.T, dir string, workers int) *runner.Runner {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return runner.New(runner.Config{Workers: workers, Cache: store.NewCache(st)})
}

// TestWarmStoreAllZeroTraversals is the acceptance criterion for the
// persistent tier: a second `experiment all` against a warm store must
// execute ZERO interpreter traversals — every cell, including the
// oracle ablation's composite jobs, is served from disk — and render a
// byte-identical report.
func TestWarmStoreAllZeroTraversals(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	base := Config{Budget: 50_000, Benchmarks: []string{"m88ksim", "perl"}}

	cold := base
	cold.Runner = storeRunner(t, dir, 4)
	coldOut, err := All(ctx, cold)
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Runner.Stats(); s.DiskPuts == 0 || s.DiskHits != 0 {
		t.Fatalf("cold run stats = %+v", s)
	}

	warm := base
	warm.Runner = storeRunner(t, dir, 4)
	before := harness.Traversals()
	warmOut, err := All(ctx, warm)
	if err != nil {
		t.Fatal(err)
	}
	if tr := harness.Traversals() - before; tr != 0 {
		t.Fatalf("warm-store All ran %d traversals, want 0", tr)
	}
	if warmOut != coldOut {
		t.Fatalf("warm-store report differs from cold run:\ncold:\n%s\nwarm:\n%s", coldOut, warmOut)
	}
	// Overlapping cells (Fig 7's STR column is Fig 6, its STR(3)/4TU
	// cells are Table 2's) hit the memory tier after the first disk
	// hit, so DiskHits + CacheHits covers every submission.
	s := warm.Runner.Stats()
	if s.Executed != 0 || s.DiskHits == 0 || s.DiskHits+s.CacheHits != s.Submitted {
		t.Fatalf("warm run stats = %+v", s)
	}
}

// TestWarmStoreSweepParallelInvariant: the store-backed path stays
// byte-identical across worker counts, warm or cold.
func TestWarmStoreSweepParallelInvariant(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	base := Config{Budget: 50_000, Benchmarks: []string{"swim", "compress"}}
	sw := SweepSpec{TUs: []int{2, 4}}

	ref := base
	ref.Parallel = 1
	refRows, err := Sweep(ctx, ref, sw)
	if err != nil {
		t.Fatal(err)
	}
	want := RenderSweep(refRows)

	for _, workers := range []int{1, 8} {
		cfg := base
		cfg.Runner = storeRunner(t, dir, workers)
		rows, err := Sweep(ctx, cfg, sw)
		if err != nil {
			t.Fatal(err)
		}
		if got := RenderSweep(rows); got != want {
			t.Fatalf("store-backed sweep at %d workers differs:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestCellSchemaVersionInvalidatesStore: bumping the key schema version
// must miss every persisted result, forcing recomputation — persisted
// cells self-invalidate when cell semantics change. It runs an ad-hoc
// sweep and a registered grid, whose cells compile once per config and
// so must not outlive the version they were compiled under.
func TestCellSchemaVersionInvalidatesStore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	base := Config{Budget: 50_000, Benchmarks: []string{"swim"}}
	sw := SweepSpec{Policies: Fig7Policies()[:2], TUs: []int{2}}
	table1, _ := grid.Lookup("table1")
	run := func(cfg Config) {
		t.Helper()
		if _, err := Sweep(ctx, cfg, sw); err != nil {
			t.Fatal(err)
		}
		if _, err := grid.Run(ctx, cfg, table1.Spec); err != nil {
			t.Fatal(err)
		}
	}

	cold := base
	cold.Runner = storeRunner(t, dir, 2)
	run(cold)
	if s := cold.Runner.Stats(); s.DiskPuts == 0 {
		t.Fatalf("cold run persisted nothing: %+v", s)
	}

	// Same version: warm.
	warm := base
	warm.Runner = storeRunner(t, dir, 2)
	run(warm)
	if s := warm.Runner.Stats(); s.DiskHits == 0 || s.Executed != 0 {
		t.Fatalf("warm run stats = %+v", s)
	}

	// Bumped version: every cell misses and recomputes.
	grid.CellSchemaVersion++
	defer func() { grid.CellSchemaVersion-- }()
	bumped := base
	bumped.Runner = storeRunner(t, dir, 2)
	run(bumped)
	if s := bumped.Runner.Stats(); s.DiskHits != 0 || s.Executed == 0 {
		t.Fatalf("bumped-version run stats = %+v (want zero disk hits, all executed)", s)
	}
}

// The cell-key version-prefix pin lives with the key machinery in
// internal/grid (grid_test.go).
