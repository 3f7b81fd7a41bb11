package expt

import (
	"context"
	"strings"

	"dynloop/internal/datapred"
	"dynloop/internal/grid"
	"dynloop/internal/report"
	"dynloop/internal/spec"
)

// Fig4Point is the average LET/LIT hit ratio at one table size.
type Fig4Point struct {
	Entries int
	// LETPct and LITPct are unweighted averages over benchmarks, in
	// percent (the paper's "average hit" of Figure 4).
	LETPct, LITPct float64
}

// Fig4Sizes are the table sizes the paper sweeps.
var Fig4Sizes = []int{2, 4, 8, 16}

// Fig4 reproduces Figure 4: LET and LIT hit ratios for 2–16 entries,
// averaged over the suite (CLS fixed at 16 entries as in §2.3.1) — the
// registered "fig4" grid; all four table sizes of a benchmark fuse into
// one traversal.
func Fig4(ctx context.Context, cfg Config) ([]Fig4Point, error) {
	res, err := runNamed(ctx, cfg, "fig4", nil)
	if err != nil {
		return nil, err
	}
	return fig4FromResult(res)
}

func fig4FromResult(res *grid.Result) ([]Fig4Point, error) {
	bms, sizes := res.Spec.Benchmarks, res.Spec.TableSizes
	if err := shape(res, len(bms)*len(sizes), "fig4"); err != nil {
		return nil, err
	}
	n := float64(len(bms))
	points := make([]Fig4Point, 0, len(sizes))
	for si, size := range sizes {
		var letSum, litSum float64
		for bi := range bms {
			c := res.Values[bi*len(sizes)+si].(grid.Fig4Cell)
			letSum += c.LET
			litSum += c.LIT
		}
		points = append(points, Fig4Point{
			Entries: size,
			LETPct:  100 * letSum / n,
			LITPct:  100 * litSum / n,
		})
	}
	return points, nil
}

// RenderFig4 formats Figure 4. The paper's reference points: LIT(4) =
// 90.50%, LET(16) = 91.98%, LIT(2) = 85.00%, LET(8) = 72.44%.
func RenderFig4(points []Fig4Point) string {
	t := report.NewTable("Figure 4: LET and LIT average hit ratios vs table size",
		"entries", "LET hit %", "LIT hit %")
	for i := len(points) - 1; i >= 0; i-- {
		p := points[i]
		t.AddRow(p.Entries, p.LETPct, p.LITPct)
	}
	return t.String()
}

// Fig5Row is one benchmark's infinite-TU TPC for the full and reduced
// budgets.
type Fig5Row struct {
	Bench string
	// TPCFull is measured over the full budget, TPCReduced over a
	// quarter of it (the paper compares the whole run against the first
	// 10^9 instructions; the ratio plays the same role here).
	TPCFull, TPCReduced float64
}

// Fig5 reproduces Figure 5: TPC for a machine with unlimited thread
// units, full vs reduced instruction window — the registered "fig5"
// grid, whose budget-divisor axis [1, 4] puts two spec cells on each
// benchmark (the budget is part of the cell key, and of the fusion
// group: different budgets mean different streams, so these cells never
// fuse with each other).
func Fig5(ctx context.Context, cfg Config) ([]Fig5Row, error) {
	res, err := runNamed(ctx, cfg, "fig5", nil)
	if err != nil {
		return nil, err
	}
	return fig5FromResult(res)
}

func fig5FromResult(res *grid.Result) ([]Fig5Row, error) {
	bms := res.Spec.Benchmarks
	if err := shape(res, 2*len(bms), "fig5"); err != nil {
		return nil, err
	}
	ms := engineMetrics(res.Values)
	rows := make([]Fig5Row, len(bms))
	for i, name := range bms {
		rows[i] = Fig5Row{
			Bench:      name,
			TPCFull:    ms.at(2 * i).TPC(),
			TPCReduced: ms.at(2*i + 1).TPC(),
		}
	}
	return rows, nil
}

// RenderFig5 formats Figure 5 as log-scale bars.
func RenderFig5(rows []Fig5Row) string {
	labels := make([]string, len(rows))
	values := make([]float64, len(rows))
	var b strings.Builder
	for i, r := range rows {
		labels[i] = r.Bench
		values[i] = r.TPCFull
	}
	b.WriteString(report.BarsLog("Figure 5: TPC for infinite TUs (full budget)", 50, labels, values))
	for i, r := range rows {
		values[i] = r.TPCReduced
	}
	b.WriteString(report.BarsLog("Figure 5: TPC for infinite TUs (quarter budget)", 50, labels, values))
	return b.String()
}

// Fig6TUs are the machine sizes of Figures 6 and 7.
var Fig6TUs = []int{2, 4, 8, 16}

// Fig6Row is one benchmark's TPC under STR per machine size.
type Fig6Row struct {
	Bench string
	// TPC maps TU count to measured TPC.
	TPC map[int]float64
}

// Fig6 reproduces Figure 6: per-program TPC under the STR policy for
// 2–16 TUs — the registered "fig6" grid, all four machine sizes of a
// benchmark fused into one traversal.
func Fig6(ctx context.Context, cfg Config) ([]Fig6Row, error) {
	res, err := runNamed(ctx, cfg, "fig6", nil)
	if err != nil {
		return nil, err
	}
	return fig6FromResult(res)
}

func fig6FromResult(res *grid.Result) ([]Fig6Row, error) {
	bms, tus := res.Spec.Benchmarks, res.Spec.TUs
	if err := shape(res, len(bms)*len(tus), "fig6"); err != nil {
		return nil, err
	}
	ms := engineMetrics(res.Values)
	rows := make([]Fig6Row, len(bms))
	for i, name := range bms {
		row := Fig6Row{Bench: name, TPC: make(map[int]float64, len(tus))}
		for j, k := range tus {
			row.TPC[k] = ms.at(i*len(tus) + j).TPC()
		}
		rows[i] = row
	}
	return rows, nil
}

// RenderFig6 formats Figure 6, including the per-size suite average (the
// paper reports 1.65 / 2.6 / 4 / 6.2 for 2 / 4 / 8 / 16 TUs).
func RenderFig6(rows []Fig6Row) string {
	t := report.NewTable("Figure 6: TPC per program under STR",
		"bench", "2 TUs", "4 TUs", "8 TUs", "16 TUs")
	avg := make(map[int]float64, len(Fig6TUs))
	for _, r := range rows {
		t.AddRow(r.Bench, r.TPC[2], r.TPC[4], r.TPC[8], r.TPC[16])
		for _, tus := range Fig6TUs {
			avg[tus] += r.TPC[tus]
		}
	}
	n := float64(len(rows))
	t.AddRow("AVG", avg[2]/n, avg[4]/n, avg[8]/n, avg[16]/n)
	// The paper's §3.2 reading aid: utilization = TPC / TUs ("as the
	// number of TUs increases, their utilization decreases but it is
	// still acceptable even for 16 TU").
	t.AddRow("AVG util %", 100*avg[2]/n/2, 100*avg[4]/n/4, 100*avg[8]/n/8, 100*avg[16]/n/16)
	return t.String()
}

// Fig7Policies are the policies Figure 7 compares.
func Fig7Policies() []spec.Policy {
	return []spec.Policy{spec.Idle(), spec.STR(), spec.STRn(1), spec.STRn(2), spec.STRn(3)}
}

// Fig7Cell is the suite-average TPC for one policy at one machine size.
type Fig7Cell struct {
	Policy string
	TUs    int
	AvgTPC float64
}

// Fig7 reproduces Figure 7: average TPC for IDLE, STR and STR(1..3)
// across 2–16 TUs — the registered "fig7" grid. Each benchmark's twenty
// cells fuse into a single traversal, and on a shared Runner its STR
// column deduplicates against Figure 6 and its STR(3)/4TU cells against
// Table 2.
func Fig7(ctx context.Context, cfg Config) ([]Fig7Cell, error) {
	res, err := runNamed(ctx, cfg, "fig7", nil)
	if err != nil {
		return nil, err
	}
	return fig7FromResult(res)
}

func fig7FromResult(res *grid.Result) ([]Fig7Cell, error) {
	bms, pols, tus := res.Spec.Benchmarks, res.Spec.Policies, res.Spec.TUs
	if err := shape(res, len(bms)*len(pols)*len(tus), "fig7"); err != nil {
		return nil, err
	}
	ms := engineMetrics(res.Values)
	out := make([]Fig7Cell, 0, len(pols)*len(tus))
	for pi, pol := range pols {
		for ti, k := range tus {
			var sum float64
			for bi := range bms {
				sum += ms.at((bi*len(pols)+pi)*len(tus) + ti).TPC()
			}
			out = append(out, Fig7Cell{Policy: pol, TUs: k, AvgTPC: sum / float64(len(bms))})
		}
	}
	return out, nil
}

// RenderFig7 formats Figure 7 as a policy × TUs matrix.
func RenderFig7(cells []Fig7Cell) string {
	byPolicy := map[string]map[int]float64{}
	var order []string
	for _, c := range cells {
		m, ok := byPolicy[c.Policy]
		if !ok {
			m = map[int]float64{}
			byPolicy[c.Policy] = m
			order = append(order, c.Policy)
		}
		m[c.TUs] = c.AvgTPC
	}
	t := report.NewTable("Figure 7: average TPC by policy",
		"policy", "2 TUs", "4 TUs", "8 TUs", "16 TUs")
	for _, p := range order {
		m := byPolicy[p]
		t.AddRow(p, m[2], m[4], m[8], m[16])
	}
	return t.String()
}

// Fig8 reproduces Figure 8: path regularity and live-in predictability
// (LIT/LET unbounded, as the paper assumes) — the registered "fig8"
// grid, one pass per benchmark, plus the suite-average row.
func Fig8(ctx context.Context, cfg Config) ([]Fig8Row, Fig8Row, error) {
	res, err := runNamed(ctx, cfg, "fig8", nil)
	if err != nil {
		return nil, Fig8Row{}, err
	}
	return fig8FromResult(res)
}

func fig8FromResult(res *grid.Result) ([]Fig8Row, Fig8Row, error) {
	rows, err := rowsAs[Fig8Row](res, "fig8")
	if err != nil {
		return nil, Fig8Row{}, err
	}
	var agg datapred.Summary
	for _, row := range rows {
		s := row.S
		agg.SamePathPct += s.SamePathPct
		agg.LrPredPct += s.LrPredPct
		agg.LmPredPct += s.LmPredPct
		agg.AllLrPct += s.AllLrPct
		agg.AllLmPct += s.AllLmPct
		agg.AllDataPct += s.AllDataPct
		agg.LrLastPct += s.LrLastPct
		agg.LmLastPct += s.LmLastPct
		agg.Iters += s.Iters
		agg.Loops += s.Loops
	}
	n := float64(len(rows))
	agg.SamePathPct /= n
	agg.LrPredPct /= n
	agg.LmPredPct /= n
	agg.AllLrPct /= n
	agg.AllLmPct /= n
	agg.AllDataPct /= n
	agg.LrLastPct /= n
	agg.LmLastPct /= n
	return rows, Fig8Row{Bench: "AVG", S: agg}, nil
}

// RenderFig8 formats Figure 8: the aggregate bars plus the per-benchmark
// detail table. The paper's headline: the most frequent path covers ~85%
// of iterations.
func RenderFig8(rows []Fig8Row, avg Fig8Row) string {
	var b strings.Builder
	labels := []string{"same path", "lr pred", "lm pred", "all lr", "all lm", "all data"}
	values := []float64{avg.S.SamePathPct, avg.S.LrPredPct, avg.S.LmPredPct,
		avg.S.AllLrPct, avg.S.AllLmPct, avg.S.AllDataPct}
	b.WriteString(report.Bars("Figure 8: data speculation statistics (suite average, %)", 50, labels, values))
	t := report.NewTable("Figure 8 detail per benchmark (%; lv = plain last-value predictor)",
		"bench", "same path", "lr pred", "lr lv", "lm pred", "lm lv", "all lr", "all lm", "all data")
	for _, r := range rows {
		t.AddRow(r.Bench, r.S.SamePathPct, r.S.LrPredPct, r.S.LrLastPct, r.S.LmPredPct,
			r.S.LmLastPct, r.S.AllLrPct, r.S.AllLmPct, r.S.AllDataPct)
	}
	b.WriteString(t.String())
	return b.String()
}
