package server

import (
	"context"
	"sync"
	"testing"

	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/wire"
)

// serveGrids are the registered grids the perfbench serve-mix workload
// names.
var serveGrids = []string{"table1", "fig4", "fig6", "table2", "baseline/branch", "ablation/oneshots"}

// TestCompileMemoServedGrids has clients request the serve grids by
// name from several goroutines at once while the daemon runs them: the
// daemon's grid.Run and the clients' grid.ResultFrom share each grid's
// memoized cells. Every remote render must equal the local one, and
// afterwards the shared cells must still equal a fresh compile (a spec
// with another title is not the registered grid, so it compiles
// afresh). Under -race this catches any write to the shared cells.
func TestCompileMemoServedGrids(t *testing.T) {
	ctx := context.Background()
	cfg := expt.Config{Budget: 10_000, Benchmarks: []string{"swim", "li"}}
	want := map[string]string{}
	for _, name := range serveGrids {
		e, _ := grid.Lookup(name)
		res, err := grid.Run(ctx, cfg, e.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if want[name], err = grid.RenderResult(res); err != nil {
			t.Fatal(err)
		}
	}
	_, c := newTestDaemon(t, Config{Workers: 2})
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * len(serveGrids) {
				name := serveGrids[(i+w)%len(serveGrids)]
				e, _ := grid.Lookup(name)
				values, err := c.Grid(ctx, wire.GridRequest{Name: name, Budget: cfg.Budget, Benchmarks: cfg.Benchmarks})
				if err != nil {
					t.Error(err)
					return
				}
				res, err := grid.ResultFrom(cfg, e.Spec, values)
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := grid.RenderResult(res); err != nil || got != want[name] {
					t.Errorf("%s: remote render differs (%v):\n%s\nwant:\n%s", name, err, got, want[name])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, name := range serveGrids {
		e, _ := grid.Lookup(name)
		shared, _, err := grid.Compile(cfg, e.Spec)
		if err != nil {
			t.Fatal(err)
		}
		fresh := e.Spec
		fresh.Title += " (fresh)"
		cells, _, err := grid.Compile(cfg, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != len(shared) {
			t.Fatalf("%s: %d shared cells, %d fresh", name, len(shared), len(cells))
		}
		for i := range cells {
			if shared[i].Coord != cells[i].Coord || shared[i].Key != cells[i].Key || shared[i].Label != cells[i].Label {
				t.Fatalf("%s: shared cell %d is %q, a fresh compile gives %q", name, i, shared[i].Key, cells[i].Key)
			}
		}
	}
}
