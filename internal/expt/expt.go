// Package expt drives the experiments that regenerate every table and
// figure of the paper's evaluation, plus the ablations called out in
// DESIGN.md. The CLI (cmd/dynloop), the examples and the root benchmark
// harness all run experiments through this package.
//
// Every driver is a thin layer over internal/grid: it names a canonical
// registered grid.Spec (Table 1 is the "table1" grid, Figure 7 the
// "fig7" grid, the CLS ablation "ablation/cls", ...), optionally
// overrides an axis from its parameters, executes the spec through
// grid.Run — which compiles the axes to versioned cells, serves cached
// cells from memory or the optional disk store, and fuses the missing
// cells of each (benchmark, budget, seed) group into one interpreter
// traversal — and aggregates the cell values into the section's rows.
// The renderers then format the rows exactly as the paper lays them
// out. Cells are cached and deduplicated individually: share one Runner
// across drivers (as All and the CLI do) and overlapping cells —
// Figure 7's STR column is Figure 6, its STR(3)/4TU cells are
// Table 2's — are computed once.
package expt

import (
	"context"
	"fmt"

	"dynloop/internal/grid"
	"dynloop/internal/spec"
)

// Config parametrises an experiment run; it is the grid layer's
// execution config (see grid.Config for the field semantics and the
// Runner sharing contract).
type Config = grid.Config

// DefaultBudget is the per-benchmark instruction budget experiments use
// unless configured otherwise.
const DefaultBudget = grid.DefaultBudget

// The cell result types live in internal/grid (they are the
// codec-registered values the store and the wire carry); the historical
// expt names remain as aliases.
type (
	// Table1Row is one benchmark's loop statistics next to the paper's.
	Table1Row = grid.Table1Row
	// Fig8Row is one benchmark's data-speculation statistics.
	Fig8Row = grid.Fig8Row
	// OneShotRow compares Table-1 statistics with and without counting
	// single-iteration executions.
	OneShotRow = grid.OneShotRow
	// BaselineRow is one benchmark's conventional branch-prediction
	// accuracies.
	BaselineRow = grid.BaselineRow
	// TaskPredRow compares next-task prediction against iteration-count
	// speculation on one benchmark.
	TaskPredRow = grid.TaskPredRow
	// OracleRow compares the STR policy against speculation with
	// perfect iteration-count knowledge.
	OracleRow = grid.OracleRow
)

// runNamed executes the named registered grid under cfg, with mod (when
// non-nil) applied to a copy of its canonical spec — how the drivers
// override one axis from their parameters.
func runNamed(ctx context.Context, cfg Config, name string, mod func(*grid.Spec)) (*grid.Result, error) {
	e, ok := grid.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("expt: grid %q not registered", name)
	}
	s := e.Spec
	if mod != nil {
		mod(&s)
	}
	return grid.Run(ctx, cfg, s)
}

// engineMetrics reads a kind "spec" grid's values as engine metrics in
// place; grid.Run has already type-checked them.
type engineMetrics []any

// at returns cell i's metrics.
func (m engineMetrics) at(i int) spec.Metrics { return m[i].(spec.Metrics) }

// shape guards a from-result conversion: the value count must match the
// aggregation's index arithmetic.
func shape(res *grid.Result, want int, what string) error {
	if len(res.Values) != want {
		return fmt.Errorf("expt: %s grid has %d cells, want %d", what, len(res.Values), want)
	}
	return nil
}

// rowsAs reads a one-cell-per-benchmark grid result as its row type —
// the common shape of Table 1, Figure 8, the baselines and the
// per-benchmark ablations.
func rowsAs[T any](res *grid.Result, what string) ([]T, error) {
	if err := shape(res, len(res.Spec.Benchmarks), what); err != nil {
		return nil, err
	}
	rows := make([]T, len(res.Values))
	for i, v := range res.Values {
		r, ok := v.(T)
		if !ok {
			return nil, fmt.Errorf("expt: %s cell %d holds %T, not the grid's row type", what, i, v)
		}
		rows[i] = r
	}
	return rows, nil
}
