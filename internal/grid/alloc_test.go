package grid_test

import (
	"testing"

	"dynloop/internal/builder"
	_ "dynloop/internal/expt" // registers the paper's grids
	"dynloop/internal/grid"
	"dynloop/internal/harness"
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
