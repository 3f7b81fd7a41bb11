package grid

import (
	"dynloop/internal/branchpred"
	"dynloop/internal/codec"
	"dynloop/internal/datapred"
	"dynloop/internal/loopstats"
	"dynloop/internal/spec"
	"dynloop/internal/workload"
)

// Codec registrations give every grid cell result a stable binary form,
// which is what lets a result leave the process: the on-disk store
// persists these exact bytes under the cell's versioned key, and the
// serving wire format streams them to remote clients.
//
// The rules:
//
//   - Kinds are forever. Never reuse a retired kind number.
//   - Field order is the format. Append new fields at the end AND bump
//     the kind's version; old frames then read as ErrVersionSkew, which
//     the cache tier treats as a miss (self-invalidation).
//   - A semantic change that keeps the shape (same fields, new meaning)
//     must ALSO bump CellSchemaVersion in grid.go, because frames of
//     the old meaning would otherwise still decode cleanly.
//
// The golden tests in codecs_test.go pin these bytes.
const (
	kindSpecMetrics codec.Kind = 1
	kindFig4Cell    codec.Kind = 2
	kindTable1Row   codec.Kind = 3
	kindFig8Row     codec.Kind = 4
	kindCLSCell     codec.Kind = 5
	kindReplCell    codec.Kind = 6
	kindOneShotRow  codec.Kind = 7
	kindBaselineRow codec.Kind = 8
	kindTaskPredRow codec.Kind = 9
	kindOracleRow   codec.Kind = 10
)

func init() {
	codec.Register(kindSpecMetrics, 1, "spec-metrics", appendSpecMetrics, decodeSpecMetrics)

	codec.Register(kindFig4Cell, 1, "fig4-cell", func(e *codec.Enc, v Fig4Cell) {
		e.F64(v.LET)
		e.F64(v.LIT)
	}, func(d *codec.Dec) Fig4Cell {
		return Fig4Cell{LET: d.F64(), LIT: d.F64()}
	})

	codec.Register(kindTable1Row, 1, "table1-row", func(e *codec.Enc, v Table1Row) {
		e.Str(v.Bench)
		appendLoopSummary(e, v.S)
		appendPaperRow(e, v.Paper)
	}, func(d *codec.Dec) Table1Row {
		return Table1Row{Bench: d.Str(), S: decodeLoopSummary(d), Paper: decodePaperRow(d)}
	})

	codec.Register(kindFig8Row, 1, "fig8-row", func(e *codec.Enc, v Fig8Row) {
		e.Str(v.Bench)
		appendDataSummary(e, v.S)
	}, func(d *codec.Dec) Fig8Row {
		return Fig8Row{Bench: d.Str(), S: decodeDataSummary(d)}
	})

	codec.Register(kindCLSCell, 1, "cls-cell", func(e *codec.Enc, v CLSCell) {
		e.U64(v.Evictions)
		e.Bool(v.AtCap)
		e.F64(v.TPC)
	}, func(d *codec.Dec) CLSCell {
		return CLSCell{Evictions: d.U64(), AtCap: d.Bool(), TPC: d.F64()}
	})

	codec.Register(kindReplCell, 1, "replacement-cell", func(e *codec.Enc, v ReplCell) {
		e.F64(v.LET)
		e.F64(v.LIT)
		e.U64(v.Inhibited)
	}, func(d *codec.Dec) ReplCell {
		return ReplCell{LET: d.F64(), LIT: d.F64(), Inhibited: d.U64()}
	})

	codec.Register(kindOneShotRow, 1, "oneshot-row", func(e *codec.Enc, v OneShotRow) {
		e.Str(v.Bench)
		e.F64(v.WithIPE)
		e.F64(v.WithoutIPE)
		e.U64(v.WithExecs)
		e.U64(v.WithoutExec)
	}, func(d *codec.Dec) OneShotRow {
		return OneShotRow{Bench: d.Str(), WithIPE: d.F64(), WithoutIPE: d.F64(),
			WithExecs: d.U64(), WithoutExec: d.U64()}
	})

	codec.Register(kindBaselineRow, 1, "baseline-row", func(e *codec.Enc, v BaselineRow) {
		e.Str(v.Bench)
		e.Int(len(v.Results))
		for _, r := range v.Results {
			e.Str(r.Name)
			e.U64(r.Branches)
			e.U64(r.Hits)
			e.U64(r.BackwardBranches)
			e.U64(r.BackwardHits)
		}
	}, func(d *codec.Dec) BaselineRow {
		row := BaselineRow{Bench: d.Str()}
		n := d.Int()
		// Append never writes a count outside [0, 64]: one is corrupt,
		// and must not size the loop.
		if n < 0 || n > 64 {
			d.Fail("baseline result count")
			n = 0
		}
		for i := 0; i < n && d.Err() == nil; i++ {
			row.Results = append(row.Results, branchpred.Result{
				Name: d.Str(), Branches: d.U64(), Hits: d.U64(),
				BackwardBranches: d.U64(), BackwardHits: d.U64(),
			})
		}
		return row
	})

	codec.Register(kindTaskPredRow, 1, "taskpred-row", func(e *codec.Enc, v TaskPredRow) {
		e.Str(v.Bench)
		e.F64(v.NextTaskPct)
		e.U64(v.Scored)
		e.F64(v.IterHitPct)
	}, func(d *codec.Dec) TaskPredRow {
		return TaskPredRow{Bench: d.Str(), NextTaskPct: d.F64(), Scored: d.U64(), IterHitPct: d.F64()}
	})

	codec.Register(kindOracleRow, 1, "oracle-row", func(e *codec.Enc, v OracleRow) {
		e.Str(v.Bench)
		e.F64(v.STRTPC)
		e.F64(v.OracleTPC)
		e.F64(v.STRHit)
		e.F64(v.OracleHit)
	}, func(d *codec.Dec) OracleRow {
		return OracleRow{Bench: d.Str(), STRTPC: d.F64(), OracleTPC: d.F64(),
			STRHit: d.F64(), OracleHit: d.F64()}
	})
}

func appendSpecMetrics(e *codec.Enc, m spec.Metrics) {
	e.U64(m.Instrs)
	e.U64(m.Cycles)
	e.U64(m.SpecEvents)
	e.U64(m.ThreadsSpawned)
	e.U64(m.ThreadsPromoted)
	e.U64(m.ThreadsSquashed)
	e.U64(m.ThreadsFlushed)
	e.U64(m.OutstandingSum)
	e.U64(m.VerifDistSum)
	e.U64(m.ResolvedThreads)
	e.U64(m.DeniedSpawns)
	e.Int(m.ExcludedLoops)
	e.U64(m.Anomalies)
}

func decodeSpecMetrics(d *codec.Dec) spec.Metrics {
	return spec.Metrics{
		Instrs:          d.U64(),
		Cycles:          d.U64(),
		SpecEvents:      d.U64(),
		ThreadsSpawned:  d.U64(),
		ThreadsPromoted: d.U64(),
		ThreadsSquashed: d.U64(),
		ThreadsFlushed:  d.U64(),
		OutstandingSum:  d.U64(),
		VerifDistSum:    d.U64(),
		ResolvedThreads: d.U64(),
		DeniedSpawns:    d.U64(),
		ExcludedLoops:   d.Int(),
		Anomalies:       d.U64(),
	}
}

func appendLoopSummary(e *codec.Enc, s loopstats.Summary) {
	e.U64(s.Instrs)
	e.Int(s.StaticLoops)
	e.U64(s.Execs)
	e.U64(s.Iters)
	e.F64(s.ItersPerExec)
	e.F64(s.InstrPerIter)
	e.F64(s.AvgNesting)
	e.Int(s.MaxNesting)
	e.F64(s.InLoopFrac)
}

func decodeLoopSummary(d *codec.Dec) loopstats.Summary {
	return loopstats.Summary{
		Instrs:       d.U64(),
		StaticLoops:  d.Int(),
		Execs:        d.U64(),
		Iters:        d.U64(),
		ItersPerExec: d.F64(),
		InstrPerIter: d.F64(),
		AvgNesting:   d.F64(),
		MaxNesting:   d.Int(),
		InLoopFrac:   d.F64(),
	}
}

func appendDataSummary(e *codec.Enc, s datapred.Summary) {
	e.Int(s.Loops)
	e.U64(s.Iters)
	e.F64(s.SamePathPct)
	e.F64(s.LrPredPct)
	e.F64(s.LmPredPct)
	e.F64(s.AllLrPct)
	e.F64(s.AllLmPct)
	e.F64(s.AllDataPct)
	e.F64(s.LrLastPct)
	e.F64(s.LmLastPct)
	e.U64(s.MemOverflow)
}

func decodeDataSummary(d *codec.Dec) datapred.Summary {
	return datapred.Summary{
		Loops:       d.Int(),
		Iters:       d.U64(),
		SamePathPct: d.F64(),
		LrPredPct:   d.F64(),
		LmPredPct:   d.F64(),
		AllLrPct:    d.F64(),
		AllLmPct:    d.F64(),
		AllDataPct:  d.F64(),
		LrLastPct:   d.F64(),
		LmLastPct:   d.F64(),
		MemOverflow: d.U64(),
	}
}

func appendPaperRow(e *codec.Enc, p workload.PaperRow) {
	e.Int(p.Loops)
	e.F64(p.ItersPerExec)
	e.F64(p.InstrPerIter)
	e.F64(p.AvgNL)
	e.Int(p.MaxNL)
	e.F64(p.TPC4)
	e.F64(p.HitRatio)
}

func decodePaperRow(d *codec.Dec) workload.PaperRow {
	return workload.PaperRow{
		Loops:        d.Int(),
		ItersPerExec: d.F64(),
		InstrPerIter: d.F64(),
		AvgNL:        d.F64(),
		MaxNL:        d.Int(),
		TPC4:         d.F64(),
		HitRatio:     d.F64(),
	}
}
