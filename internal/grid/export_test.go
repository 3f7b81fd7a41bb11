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
