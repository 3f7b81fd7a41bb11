package grid_test

import (
	"context"
	"runtime"
	"testing"

	"dynloop/internal/builder"
	_ "dynloop/internal/expt" // registers the paper's grids
	"dynloop/internal/grid"
	"dynloop/internal/harness"
	"dynloop/internal/runner"
	"dynloop/internal/workload"
)

// allocSlack is how many more objects a traversal at budget 4N may
// allocate than one at N, beyond the interpreter's data pages: the page
// map's growth, or a pooled batch buffer dropped by a collection.
const allocSlack = 16

// TestAllocsDoNotScaleWithBudget pins that per-cell analysis does not
// allocate per loop execution or iteration. For every workload and every
// registered grid, it builds the fused pass set of one group (the cells
// sharing a traversal), warms it with one traversal at budget 4N, then
// counts the allocations of further traversals into the same passes at
// N and at 4N. Those traversals replay a prefix of the warm-up stream,
// so every loop, path and address they meet is already in the passes'
// tables; what is left is per traversal (a CPU, its sequences, the
// broadcast) and cancels out, unless something allocates per loop
// execution. The one thing that legitimately grows is the program's data
// footprint: the interpreter's memory allocates a page the first time a
// program touches it, and a streaming workload (su2cor) keeps touching
// new ones, so the page count difference is allowed on top. Composite grids (the oracle, which records one iteration
// count per execution by design) have no fused pass set and are skipped.
func TestAllocsDoNotScaleWithBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("traverses every workload for every registered grid")
	}
	const n = 25_000
	for _, name := range grid.Names() {
		e, _ := grid.Lookup(name)
		for _, bm := range workload.All() {
			s := e.Spec
			s.Benchmarks = []string{bm.Name}
			cells, _, err := grid.Compile(grid.Config{Budget: 4 * n}, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, bm.Name, err)
			}
			var group []grid.Cell
			for _, c := range cells {
				// One group: the cells at the first cell's budget and seed.
				if c.Coord.Budget == cells[0].Coord.Budget && c.Coord.Seed == cells[0].Coord.Seed {
					group = append(group, c)
				}
			}
			passes, _, _, ok := grid.GroupPasses(group...)
			if !ok {
				continue
			}
			u, err := bm.Build(cells[0].Coord.Seed)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, bm.Name, err)
			}
			traverse := func(budget uint64) {
				if _, err := harness.MultiRun(u, harness.MultiConfig{Budget: budget}, passes...); err != nil {
					t.Fatalf("%s/%s: %v", name, bm.Name, err)
				}
			}
			traverse(4 * n)
			small := testing.AllocsPerRun(2, func() { traverse(n) })
			large := testing.AllocsPerRun(2, func() { traverse(4 * n) })
			pages := footprint(t, u, 4*n) - footprint(t, u, n)
			if large-small > float64(allocSlack+pages) {
				t.Errorf("grid %s, workload %s: %v allocs per traversal at budget %d but %v at %d (%d more data pages); allocation grows with loop executions",
					name, bm.Name, small, n, large, 4*n, pages)
			}
		}
	}
}

// footprint is the number of data-memory pages u touches in budget
// instructions.
func footprint(t *testing.T, u *builder.Unit, budget uint64) int {
	t.Helper()
	cpu := u.NewCPU()
	if _, err := cpu.Run(budget, nil); err != nil {
		t.Fatal(err)
	}
	return cpu.Mem().Footprint()
}

// maxFreshSeedWriteBytes bounds the bytes one write allocates once the
// programs are built. A fresh build and predecode of the largest
// program (gcc) is about 6 MB. With the group and its passes recycled
// through free lists, a write measured at most 10.0 KB, and 10.4 KB
// under the race detector; the bound leaves about 15% headroom over
// that.
const maxFreshSeedWriteBytes = 12 << 10

// TestFreshSeedWriteAllocs pins the cost of a daemon write: a one-cell
// table1 grid at 20k instructions and a seed no earlier run used. Every
// seed shares its benchmark's one built program, so a write allocates
// only its own traversal, recording and cell, on every benchmark.
func TestFreshSeedWriteAllocs(t *testing.T) {
	const writes = 4
	pool := runner.New(runner.Config{Workers: 1})
	seed := uint64(1) << 40
	write := func(bench string) {
		seed++
		s := grid.Spec{Kind: "table1", Benchmarks: []string{bench}}
		if _, err := grid.Run(context.Background(), grid.Config{Budget: 20_000, Seed: seed, Runner: pool}, s); err != nil {
			t.Fatalf("%s at seed %d: %v", bench, seed, err)
		}
	}
	var most uint64
	for _, bm := range workload.All() {
		write(bm.Name) // builds the program if no earlier test did
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range writes {
			write(bm.Name)
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / writes
		if per > maxFreshSeedWriteBytes {
			t.Errorf("%s: a write at a fresh seed allocates %d bytes, want at most %d", bm.Name, per, maxFreshSeedWriteBytes)
		}
		most = max(most, per)
	}
	t.Logf("a write at a fresh seed allocates at most %d bytes", most)
}

// warmGridSlack is how many more objects a warm run of a 72-cell grid
// may allocate than one of an 18-cell grid.
const warmGridSlack = 2

// TestWarmGridAllocs pins what a served named-grid request costs once
// every cell is in the runner's memory: a fixed number of allocations,
// whatever the grid's cell count. Hits are served on the calling
// goroutine, and the compiled cells carry their fusion group keys, so
// nothing is started or built per cell. fig6 (72 cells) may allocate
// no more than table1 (18 cells) plus warmGridSlack.
func TestWarmGridAllocs(t *testing.T) {
	ctx := context.Background()
	pool := runner.New(runner.Config{Workers: 2})
	cfg := grid.Config{Budget: 20_000, Seed: 1, Runner: pool}
	warm := func(name string, cells int) float64 {
		e, _ := grid.Lookup(name)
		run := func() {
			res, err := grid.Run(ctx, cfg, e.Spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Values) != cells {
				t.Fatalf("%s: %d cells, want %d", name, len(res.Values), cells)
			}
		}
		run() // computes every cell
		before := pool.Stats()
		allocs := testing.AllocsPerRun(20, run)
		after := pool.Stats()
		if after.Executed != before.Executed || after.CacheHits-before.CacheHits != 21*uint64(cells) {
			t.Fatalf("%s: warm runs were not all memory hits: stats %+v then %+v", name, before, after)
		}
		return allocs
	}
	small, large := warm("table1", 18), warm("fig6", 72)
	t.Logf("warm grid.Run: table1 %v allocs, fig6 %v allocs", small, large)
	if large > small+warmGridSlack {
		t.Errorf("a warm fig6 run allocates %v objects but a warm table1 run %v; want at most %d more, whatever the cell count",
			large, small, warmGridSlack)
	}
}
