package grid_test

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dynloop/internal/grid"
	"dynloop/internal/runner"
	"dynloop/internal/workload"
)

// maxWarmGroupBytes bounds what a warm execution of any fused group
// allocates: its finish hooks and values, and a CPU with its input
// sequences and page map when it interprets. The largest measured is
// about 10 KB (a Figure 8 group on gcc).
const maxWarmGroupBytes = 16 << 10

// TestRecycleWarmGroupAllocs pins that a fused group's passes are
// recycled: for every registered grid's fused groups on every workload,
// once one execution of a group has warmed the free lists, a second
// execution allocates at most maxWarmGroupBytes, the same bound for
// every grid and workload. The group, its detectors, engine banks,
// LET/LIT tables, collectors, predictors, branch predictor suite and
// data pages all come back from their free lists with the storage the
// first execution grew. Streams are recorded first, so both executions
// replay them as a render does (Figure 8 groups interpret).
func TestRecycleWarmGroupAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("executes every registered grid's groups on every workload")
	}
	ctx := context.Background()
	cfg := grid.Config{Budget: 100_000, Seed: 1}
	pool := runner.New(runner.Config{Workers: 1})
	rec, _ := grid.Lookup("table1")
	recCfg := cfg
	recCfg.Runner = pool
	if _, err := grid.Run(ctx, recCfg, rec.Spec); err != nil {
		t.Fatal(err)
	}
	for _, name := range grid.Names() {
		e, _ := grid.Lookup(name)
		for _, bm := range workload.All() {
			s := e.Spec
			s.Benchmarks = []string{bm.Name}
			cells, _, err := grid.Compile(cfg, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, bm.Name, err)
			}
			for _, g := range grid.Groups(cells) {
				if _, err := grid.RunGroup(ctx, cfg, pool, g); err != nil {
					t.Fatalf("%s/%s: %v", name, bm.Name, err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := grid.RunGroup(ctx, cfg, pool, g); err != nil {
					t.Fatalf("%s/%s: %v", name, bm.Name, err)
				}
				runtime.ReadMemStats(&after)
				if b := after.TotalAlloc - before.TotalAlloc; b > maxWarmGroupBytes {
					t.Errorf("grid %s, workload %s, group %s: a warm execution allocates %d bytes, want at most %d",
						name, bm.Name, g[0].Label, b, maxWarmGroupBytes)
				}
			}
		}
	}
}

// TestRecycleReverseRenderMatchesPrivate pins that recycled state
// computes what fresh state does. A render of every registered grid in
// registry order fills the free lists; a render in reverse order, through a
// fresh runner so that every cell executes again, then runs on
// detectors, banks, tables and collectors that groups of other grids,
// workloads and capacities grew, on two workers. Each of its grids must
// match grid.RunPrivate byte for byte: every value, and the rendered
// text.
func TestRecycleReverseRenderMatchesPrivate(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every registered grid three times")
	}
	ctx := context.Background()
	names := grid.Names()
	render := func(order []string) map[string]*grid.Result {
		cfg := grid.Config{Budget: 20_000, Seed: 1, Runner: runner.New(runner.Config{Workers: 2})}
		out := map[string]*grid.Result{}
		for _, name := range order {
			e, _ := grid.Lookup(name)
			res, err := grid.Run(ctx, cfg, e.Spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = res
		}
		return out
	}
	render(names)
	reversed := slices.Clone(names)
	slices.Reverse(reversed)
	recycled := render(reversed)
	for _, name := range names {
		e, _ := grid.Lookup(name)
		cfg := grid.Config{Budget: 20_000, Seed: 1}
		private, err := grid.RunPrivate(ctx, cfg, e.Spec)
		if err != nil {
			t.Fatalf("%s private: %v", name, err)
		}
		res := recycled[name]
		if !reflect.DeepEqual(res.Values, private) {
			t.Errorf("%s: recycled values differ from RunPrivate", name)
			continue
		}
		want, err := grid.ResultFrom(cfg, e.Spec, private)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Render(res)
		if err != nil {
			t.Fatal(err)
		}
		if wantOut, err := e.Render(want); err != nil || got != wantOut {
			t.Errorf("%s: recycled render differs from RunPrivate's (%v)", name, err)
		}
	}
}
