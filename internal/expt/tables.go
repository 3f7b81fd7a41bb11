package expt

import (
	"context"
	"fmt"

	"dynloop/internal/grid"
	"dynloop/internal/report"
	"dynloop/internal/spec"
	"dynloop/internal/workload"
)

// Table1 reproduces the paper's Table 1 (loop statistics per program),
// one pass per benchmark — the registered "table1" grid.
func Table1(ctx context.Context, cfg Config) ([]Table1Row, error) {
	res, err := runNamed(ctx, cfg, "table1", nil)
	if err != nil {
		return nil, err
	}
	return table1FromResult(res)
}

func table1FromResult(res *grid.Result) ([]Table1Row, error) {
	return rowsAs[Table1Row](res, "table1")
}

// RenderTable1 formats Table 1 with the paper's values alongside.
func RenderTable1(rows []Table1Row) string {
	t := report.NewTable("Table 1: loop statistics (paper's value in parentheses)",
		"bench", "#instr", "#loops", "#iter/exec", "#instr/iter", "avg.nl", "max.nl")
	for _, r := range rows {
		t.AddRow(r.Bench,
			r.S.Instrs,
			fmt.Sprintf("%d (%d)", r.S.StaticLoops, r.Paper.Loops),
			fmt.Sprintf("%.2f (%.2f)", r.S.ItersPerExec, r.Paper.ItersPerExec),
			fmt.Sprintf("%.1f (%.1f)", r.S.InstrPerIter, r.Paper.InstrPerIter),
			fmt.Sprintf("%.2f (%.2f)", r.S.AvgNesting, r.Paper.AvgNL),
			fmt.Sprintf("%d (%d)", r.S.MaxNesting, r.Paper.MaxNL))
	}
	return t.String()
}

// Table2Row is one benchmark's STR(3)/4-TU speculation statistics.
type Table2Row struct {
	Bench string
	M     spec.Metrics
	Paper workload.PaperRow
}

// Table2 reproduces the paper's Table 2: control speculation statistics
// under STR(3) with 4 TUs — the registered "table2" grid, one spec cell
// per benchmark, shared with Figure 7's STR(3) column when the Runner
// is.
func Table2(ctx context.Context, cfg Config) ([]Table2Row, error) {
	res, err := runNamed(ctx, cfg, "table2", nil)
	if err != nil {
		return nil, err
	}
	return table2FromResult(res)
}

func table2FromResult(res *grid.Result) ([]Table2Row, error) {
	if err := shape(res, len(res.Spec.Benchmarks), "table2"); err != nil {
		return nil, err
	}
	ms := engineMetrics(res.Values)
	rows := make([]Table2Row, len(ms))
	for i, name := range res.Spec.Benchmarks {
		bm, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		rows[i] = Table2Row{Bench: name, M: ms.at(i), Paper: bm.Paper}
	}
	return rows, nil
}

// RenderTable2 formats Table 2 with the paper's TPC and hit ratio
// alongside.
func RenderTable2(rows []Table2Row) string {
	t := report.NewTable("Table 2: control speculation statistics, STR(3), 4 TUs (paper in parentheses)",
		"bench", "#spec.", "#threads/spec.", "hit ratio(%)", "#instr.to verif", "TPC")
	for _, r := range rows {
		t.AddRow(r.Bench,
			r.M.SpecEvents,
			fmt.Sprintf("%.2f", r.M.ThreadsPerSpec()),
			fmt.Sprintf("%.2f (%.2f)", r.M.HitRatio(), r.Paper.HitRatio),
			fmt.Sprintf("%.0f", r.M.InstrToVerif()),
			fmt.Sprintf("%.2f (%.2f)", r.M.TPC(), r.Paper.TPC4))
	}
	return t.String()
}
