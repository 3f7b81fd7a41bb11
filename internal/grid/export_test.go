package grid

import "dynloop/internal/trace"

// CellPass builds a fusable cell's analysis pass; ok is false for a
// composite cell, which owns its traversals instead.
func CellPass(c Cell) (p trace.Pass, ok bool) {
	if c.mk == nil {
		return nil, false
	}
	p, _ = c.mk()
	return p, true
}

// CheckCellKeys compares every cell's key, label and group key with
// the reference formulas (see checkCellKeys).
func CheckCellKeys(kind string, batchSize int, cells []Cell) error {
	return checkCellKeys(kind, batchSize, cells)
}

// Expand builds the cells of an already-resolved spec without
// validating it again, so a test can reach axis values Validate
// rejects.
func Expand(cfg Config, rs Spec) ([]Cell, error) { return expand(cfg, &rs) }
