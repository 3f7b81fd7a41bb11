package grid

import "dynloop/internal/trace"

// GroupPasses builds the pass set of one fused group holding cells, as
// runCells builds it, and reports how many detectors and shared LETs it
// holds; ok is false when a cell is composite (it owns its traversals
// instead).
func GroupPasses(cells ...Cell) (passes []trace.Pass, detectors, lets int, ok bool) {
	g := newGroup()
	for _, c := range cells {
		if c.attach == nil {
			return nil, 0, 0, false
		}
		c.attach(g)
	}
	for _, d := range g.dets {
		lets += len(d.lets)
	}
	return g.passes, len(g.dets), lets, true
}

// GroupDetectors returns how many detectors fused groups have built in
// this process.
func GroupDetectors() uint64 { return groupDetectors.Load() }

// CheckCellKeys compares every cell's key, label and group key with
// the reference formulas (see checkCellKeys).
func CheckCellKeys(kind string, batchSize int, cells []Cell) error {
	return checkCellKeys(kind, batchSize, cells)
}

// Expand builds the cells of an already-resolved spec without
// validating it again, so a test can reach axis values Validate
// rejects.
func Expand(cfg Config, rs Spec) ([]Cell, error) { return expand(cfg, &rs) }
