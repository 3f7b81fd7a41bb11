package expt

import (
	"context"

	"dynloop/internal/grid"
	"dynloop/internal/report"
)

// CLSSizeRow is one CLS-capacity point of the AblationCLSSize sweep.
type CLSSizeRow struct {
	Capacity int
	// Evictions is the total CLS overflow count across the suite.
	Evictions uint64
	// MaxDepthHits counts benchmarks whose observed nesting hit the cap.
	MaxDepthHits int
	// AvgTPC is the suite-average STR(3)/4-TU TPC at this capacity.
	AvgTPC float64
}

// AblationCLSSize sweeps the CLS capacity (the paper fixes 16 and argues
// it never overflows on SPEC95: "the maximum nesting level is lower than
// 16"). The sweep shows where detection starts degrading — the
// registered "ablation/cls" grid; because a fused group builds one
// detector per capacity, all capacities of a benchmark still fuse into
// one traversal.
func AblationCLSSize(ctx context.Context, cfg Config, capacities []int) ([]CLSSizeRow, error) {
	res, err := runNamed(ctx, cfg, "ablation/cls", func(s *grid.Spec) {
		if len(capacities) > 0 {
			s.CLS = capacities
		}
	})
	if err != nil {
		return nil, err
	}
	return clsSizeFromResult(res)
}

func clsSizeFromResult(res *grid.Result) ([]CLSSizeRow, error) {
	bms, caps := res.Spec.Benchmarks, res.Spec.CLS
	if err := shape(res, len(bms)*len(caps), "ablation/cls"); err != nil {
		return nil, err
	}
	rows := make([]CLSSizeRow, 0, len(caps))
	for ci, capEntries := range caps {
		row := CLSSizeRow{Capacity: capEntries}
		var tpcSum float64
		for bi := range bms {
			c := res.Values[bi*len(caps)+ci].(grid.CLSCell)
			row.Evictions += c.Evictions
			if c.AtCap {
				row.MaxDepthHits++
			}
			tpcSum += c.TPC
		}
		row.AvgTPC = tpcSum / float64(len(bms))
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderCLSSize formats the CLS-capacity ablation.
func RenderCLSSize(rows []CLSSizeRow) string {
	t := report.NewTable("Ablation: CLS capacity (paper uses 16; overflow drops the outermost entry)",
		"CLS entries", "evictions", "benchmarks at cap", "avg TPC (STR(3), 4 TUs)")
	for _, r := range rows {
		t.AddRow(r.Capacity, r.Evictions, r.MaxDepthHits, r.AvgTPC)
	}
	return t.String()
}

// LETCapacityRow is one point of the engine-LET capacity sweep.
type LETCapacityRow struct {
	Capacity int // 0 = unbounded
	AvgTPC   float64
	AvgHit   float64
}

// AblationLETCapacity sweeps the speculation engine's iteration-count
// LET size (the paper leaves it open; the Figure 4 experiment suggests
// 16 entries suffice for history hits) — the registered "ablation/let"
// grid, capacity × benchmark spec cells fused per benchmark.
func AblationLETCapacity(ctx context.Context, cfg Config, capacities []int) ([]LETCapacityRow, error) {
	res, err := runNamed(ctx, cfg, "ablation/let", func(s *grid.Spec) {
		if len(capacities) > 0 {
			s.LETCaps = capacities
		}
	})
	if err != nil {
		return nil, err
	}
	return letCapacityFromResult(res)
}

func letCapacityFromResult(res *grid.Result) ([]LETCapacityRow, error) {
	bms, caps := res.Spec.Benchmarks, res.Spec.LETCaps
	if err := shape(res, len(bms)*len(caps), "ablation/let"); err != nil {
		return nil, err
	}
	ms := engineMetrics(res.Values)
	rows := make([]LETCapacityRow, 0, len(caps))
	for ci, capEntries := range caps {
		var tpcSum, hitSum float64
		for bi := range bms {
			m := ms.at(bi*len(caps) + ci)
			tpcSum += m.TPC()
			hitSum += m.HitRatio()
		}
		rows = append(rows, LETCapacityRow{
			Capacity: capEntries,
			AvgTPC:   tpcSum / float64(len(bms)),
			AvgHit:   hitSum / float64(len(bms)),
		})
	}
	return rows, nil
}

// RenderLETCapacity formats the engine-LET ablation.
func RenderLETCapacity(rows []LETCapacityRow) string {
	t := report.NewTable("Ablation: speculation-engine LET capacity (0 = unbounded)",
		"LET entries", "avg TPC", "avg hit %")
	for _, r := range rows {
		t.AddRow(r.Capacity, r.AvgTPC, r.AvgHit)
	}
	return t.String()
}

// ReplacementRow compares LRU against the §2.3.2 nesting-aware insertion
// policy at one table size.
type ReplacementRow struct {
	Entries int
	// Hit ratios in percent, suite-averaged.
	LRULet, LRULit, NestLet, NestLit float64
	// Inhibited counts skipped insertions under the nesting-aware policy.
	Inhibited uint64
}

// AblationReplacement reproduces the paper's §2.3.2 finding: the
// nesting-aware insertion-inhibit policy improves on LRU only
// negligibly — the registered "ablation/replacement" grid (size ×
// benchmark × {LRU, nesting-aware}), fused per benchmark.
func AblationReplacement(ctx context.Context, cfg Config, sizes []int) ([]ReplacementRow, error) {
	res, err := runNamed(ctx, cfg, "ablation/replacement", func(s *grid.Spec) {
		if len(sizes) > 0 {
			s.TableSizes = sizes
		}
	})
	if err != nil {
		return nil, err
	}
	return replacementFromResult(res)
}

func replacementFromResult(res *grid.Result) ([]ReplacementRow, error) {
	bms, sizes, modes := res.Spec.Benchmarks, res.Spec.TableSizes, res.Spec.Modes
	if err := shape(res, len(bms)*len(sizes)*len(modes), "ablation/replacement"); err != nil {
		return nil, err
	}
	rows := make([]ReplacementRow, 0, len(sizes))
	for si, size := range sizes {
		row := ReplacementRow{Entries: size}
		for bi := range bms {
			lru := res.Values[(bi*len(sizes)+si)*2].(grid.ReplCell)
			nest := res.Values[(bi*len(sizes)+si)*2+1].(grid.ReplCell)
			row.LRULet += lru.LET
			row.LRULit += lru.LIT
			row.NestLet += nest.LET
			row.NestLit += nest.LIT
			row.Inhibited += nest.Inhibited
		}
		n := float64(len(bms))
		row.LRULet = 100 * row.LRULet / n
		row.LRULit = 100 * row.LRULit / n
		row.NestLet = 100 * row.NestLet / n
		row.NestLit = 100 * row.NestLit / n
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderReplacement formats the replacement-policy ablation.
func RenderReplacement(rows []ReplacementRow) string {
	t := report.NewTable("Ablation: LRU vs nesting-aware insertion (§2.3.2; paper: negligible difference)",
		"entries", "LRU LET%", "nest LET%", "LRU LIT%", "nest LIT%", "inhibited")
	for _, r := range rows {
		t.AddRow(r.Entries, r.LRULet, r.NestLet, r.LRULit, r.NestLit, r.Inhibited)
	}
	return t.String()
}

// AblationOneShots quantifies the effect of counting one-iteration
// executions in the Table 1 statistics (the paper's definition detects
// them but does not say whether they are included; we default to
// counting them) — the registered "ablation/oneshots" grid. One pass
// per benchmark; both collectors share a single detector.
func AblationOneShots(ctx context.Context, cfg Config) ([]OneShotRow, error) {
	res, err := runNamed(ctx, cfg, "ablation/oneshots", nil)
	if err != nil {
		return nil, err
	}
	return oneShotsFromResult(res)
}

func oneShotsFromResult(res *grid.Result) ([]OneShotRow, error) {
	return rowsAs[OneShotRow](res, "ablation/oneshots")
}

// RenderOneShots formats the one-shot ablation.
func RenderOneShots(rows []OneShotRow) string {
	t := report.NewTable("Ablation: counting 1-iteration executions in Table 1",
		"bench", "iter/exec (with)", "iter/exec (without)", "execs (with)", "execs (without)")
	for _, r := range rows {
		t.AddRow(r.Bench, r.WithIPE, r.WithoutIPE, r.WithExecs, r.WithoutExec)
	}
	return t.String()
}

// NestRuleRow compares the two STR(i) interpretations at one machine
// size.
type NestRuleRow struct {
	Policy string
	TUs    int
	// Suite-average TPC under each interpretation.
	StarvationTPC, StaticTPC float64
}

// AblationNestRule compares the starvation-based STR(i) reading (our
// default; consistent with the paper's Table 2) against the literal
// structural reading (see spec.NestRule and DESIGN.md) — the registered
// "ablation/nestrule" grid (policy × machine size × benchmark × rule),
// in spec cells fused per benchmark.
func AblationNestRule(ctx context.Context, cfg Config, tus []int) ([]NestRuleRow, error) {
	res, err := runNamed(ctx, cfg, "ablation/nestrule", func(s *grid.Spec) {
		if len(tus) > 0 {
			s.TUs = tus
		}
	})
	if err != nil {
		return nil, err
	}
	return nestRuleFromResult(res)
}

func nestRuleFromResult(res *grid.Result) ([]NestRuleRow, error) {
	bms, pols, tus, rules := res.Spec.Benchmarks, res.Spec.Policies, res.Spec.TUs, res.Spec.NestRules
	if err := shape(res, len(bms)*len(pols)*len(tus)*len(rules), "ablation/nestrule"); err != nil {
		return nil, err
	}
	ms := engineMetrics(res.Values)
	var rows []NestRuleRow
	for pi, pol := range pols {
		for ti, k := range tus {
			row := NestRuleRow{Policy: pol, TUs: k}
			for bi := range bms {
				base := ((bi*len(pols)+pi)*len(tus) + ti) * len(rules)
				row.StarvationTPC += ms.at(base).TPC()
				row.StaticTPC += ms.at(base + 1).TPC()
			}
			n := float64(len(bms))
			row.StarvationTPC /= n
			row.StaticTPC /= n
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderNestRule formats the STR(i)-interpretation ablation.
func RenderNestRule(rows []NestRuleRow) string {
	t := report.NewTable("Ablation: STR(i) interpretation (starvation-based vs literal structural)",
		"policy", "TUs", "avg TPC (starvation)", "avg TPC (static)")
	for _, r := range rows {
		t.AddRow(r.Policy, r.TUs, r.StarvationTPC, r.StaticTPC)
	}
	return t.String()
}

// ExclusionRow compares speculation with and without the §2.3.2
// exclusion table on one benchmark.
type ExclusionRow struct {
	Bench         string
	OffHit, OnHit float64
	OffTPC, OnTPC float64
	Denied        uint64
	Excluded      int
}

// AblationExclusion measures the §2.3.2 exclusion table ("those loops
// with a poor prediction rate may be good candidates to store in this
// table"): loops whose predicted threads resolve below the threshold are
// denied further speculation — the registered "ablation/exclusion" grid,
// two spec cells per benchmark, fused; the exclusion-off cell is
// Table 2's and deduplicates against it on a shared Runner.
func AblationExclusion(ctx context.Context, cfg Config, threshold float64) ([]ExclusionRow, error) {
	res, err := runNamed(ctx, cfg, "ablation/exclusion", func(s *grid.Spec) {
		if threshold != 0 {
			s.Exclusion = []grid.ExclusionSpec{{}, {Enabled: true, Threshold: threshold}}
		}
	})
	if err != nil {
		return nil, err
	}
	return exclusionFromResult(res)
}

func exclusionFromResult(res *grid.Result) ([]ExclusionRow, error) {
	bms := res.Spec.Benchmarks
	if err := shape(res, 2*len(bms), "ablation/exclusion"); err != nil {
		return nil, err
	}
	ms := engineMetrics(res.Values)
	rows := make([]ExclusionRow, 0, len(bms))
	for i, name := range bms {
		mOff, mOn := ms.at(2*i), ms.at(2*i+1)
		rows = append(rows, ExclusionRow{
			Bench:  name,
			OffHit: mOff.HitRatio(), OnHit: mOn.HitRatio(),
			OffTPC: mOff.TPC(), OnTPC: mOn.TPC(),
			Denied: mOn.DeniedSpawns, Excluded: mOn.ExcludedLoops,
		})
	}
	return rows, nil
}

// RenderExclusion formats the exclusion-table ablation.
func RenderExclusion(rows []ExclusionRow) string {
	t := report.NewTable("Ablation: §2.3.2 exclusion table (STR(3), 4 TUs)",
		"bench", "hit% off", "hit% on", "TPC off", "TPC on", "denied", "excluded loops")
	for _, r := range rows {
		t.AddRow(r.Bench, r.OffHit, r.OnHit, r.OffTPC, r.OnTPC, r.Denied, r.Excluded)
	}
	return t.String()
}

// AblationOracle bounds the cost of iteration-count misprediction: a
// first traversal records every execution's true count, a second
// speculates with it. The gap between the STR and oracle columns is all
// the TPC that better iteration-count prediction could ever recover —
// the registered "ablation/oracle" grid, whose cells are composite jobs
// owning two traversals each (the oracle run depends on the recorder
// pass, so it cannot fuse).
func AblationOracle(ctx context.Context, cfg Config) ([]OracleRow, error) {
	res, err := runNamed(ctx, cfg, "ablation/oracle", nil)
	if err != nil {
		return nil, err
	}
	return oracleFromResult(res)
}

func oracleFromResult(res *grid.Result) ([]OracleRow, error) {
	return rowsAs[OracleRow](res, "ablation/oracle")
}

// RenderOracle formats the oracle ablation.
func RenderOracle(rows []OracleRow) string {
	t := report.NewTable("Ablation: STR vs oracle iteration counts (4 TUs)",
		"bench", "STR TPC", "oracle TPC", "STR hit%", "oracle hit%")
	for _, r := range rows {
		t.AddRow(r.Bench, r.STRTPC, r.OracleTPC, r.STRHit, r.OracleHit)
	}
	return t.String()
}
