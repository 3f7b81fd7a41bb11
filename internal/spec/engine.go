package spec

import (
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
)

// NestRule selects how STR(i) counts the "non-speculated loops nested
// into a loop that is being speculated" — the paper's wording admits two
// readings (see DESIGN.md).
type NestRule uint8

const (
	// NestRuleStarvation (the default) counts distinct nested loops that
	// asked for speculative threads and found no idle TU; the count
	// resets when the outermost thread owner spawns again. This reading
	// is consistent with the paper's Table 2 (fpppp's coarse threads
	// survive above predicted-and-covered tiny nests).
	NestRuleStarvation NestRule = iota
	// NestRuleStatic counts the non-speculated loops currently nested
	// above the outermost thread owner on the CLS, evaluated whenever a
	// new loop execution starts. It is the literal structural reading.
	NestRuleStatic
)

// Config parametrises an Engine, or one lane of a Bank.
type Config struct {
	// TUs is the number of thread units; 0 models the infinite machine of
	// Figure 5 (the policy is then coerced to IDLE-with-all-iterations).
	TUs int
	// Policy is the speculation policy (§3.1.2).
	Policy Policy
	// LETCapacity bounds the engine's iteration-count LET
	// (0 = unbounded, the default).
	LETCapacity int
	// NestRule selects the STR(i) interpretation (see NestRule).
	NestRule NestRule

	// Exclude enables the §2.3.2 exclusion table: "those loops with a
	// poor prediction rate may be good candidates to store in this
	// table", denying them further speculation so better-predicted loops
	// keep the TUs and the table entries.
	Exclude bool
	// ExcludeThreshold is the accuracy below which a loop is excluded
	// (promoted/(promoted+squashed); default 0.5).
	ExcludeThreshold float64
	// ExcludeMinResolved is the number of resolved threads required
	// before a loop can be judged (default 8).
	ExcludeMinResolved int
	// ExcludeCapacity bounds the exclusion table (default 16, LRU).
	ExcludeCapacity int

	// OracleIters, when non-nil, replaces the LET prediction with the
	// true iteration count of each execution, consumed in execution
	// birth order (record one with RecordOracle). It bounds how much TPC
	// control misprediction costs: with it, threads are only lost to
	// STR(i) squashes and budget flushes.
	OracleIters []int
}

func (c *Config) excludeDefaults() {
	if c.ExcludeThreshold == 0 {
		c.ExcludeThreshold = 0.5
	}
	if c.ExcludeMinResolved == 0 {
		c.ExcludeMinResolved = 8
	}
	if c.ExcludeCapacity == 0 {
		c.ExcludeCapacity = 16
	}
}

// Metrics are the engine's aggregate results; Table 2 and Figures 5–7 are
// built from them.
type Metrics struct {
	// Instrs is the number of retired instructions.
	Instrs uint64
	// Cycles is the total cycle count of the run under the 1-instruction
	// per TU per cycle model.
	Cycles uint64
	// SpecEvents counts control speculations (iteration starts at which
	// at least one new thread was spawned; in infinite mode, one per
	// execution).
	SpecEvents uint64
	// ThreadsSpawned, ThreadsPromoted, ThreadsSquashed, ThreadsFlushed
	// count speculative-thread outcomes. Flushed threads (pending when
	// the stream ends) are excluded from the hit ratio.
	ThreadsSpawned  uint64
	ThreadsPromoted uint64
	ThreadsSquashed uint64
	ThreadsFlushed  uint64
	// OutstandingSum accumulates, per speculation event, the number of
	// outstanding speculative threads for the loop after the event; see
	// ThreadsPerSpec.
	OutstandingSum uint64
	// VerifDistSum accumulates the dynamic-instruction distance from
	// spawn to resolution (promotion or squash) over resolved threads.
	VerifDistSum    uint64
	ResolvedThreads uint64
	// DeniedSpawns counts spawn attempts suppressed by the exclusion
	// table (§2.3.2), when enabled.
	DeniedSpawns uint64
	// ExcludedLoops is the number of loops currently excluded.
	ExcludedLoops int
	// Anomalies counts internal consistency violations (should be 0).
	Anomalies uint64
}

// TPC returns instructions per cycle, the paper's thread-level
// parallelism metric.
func (m Metrics) TPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Instrs) / float64(m.Cycles)
}

// HitRatio returns promoted/(promoted+squashed) in percent.
func (m Metrics) HitRatio() float64 {
	d := m.ThreadsPromoted + m.ThreadsSquashed
	if d == 0 {
		return 0
	}
	return 100 * float64(m.ThreadsPromoted) / float64(d)
}

// ThreadsPerSpec returns the average number of outstanding speculative
// threads per speculation event (Table 2's "#threads/spec.").
func (m Metrics) ThreadsPerSpec() float64 {
	if m.SpecEvents == 0 {
		return 0
	}
	return float64(m.OutstandingSum) / float64(m.SpecEvents)
}

// InstrToVerif returns the average dynamic-instruction distance from
// spawn to verification (Table 2's "#instr. to verif.").
func (m Metrics) InstrToVerif() float64 {
	if m.ResolvedThreads == 0 {
		return 0
	}
	return float64(m.VerifDistSum) / float64(m.ResolvedThreads)
}

// Engine is the speculation machine of one configuration: a Bank of one
// lane. Attach it to a Detector with AddObserver — or bundle it into one
// pass of a fused multi-pass traversal with harness.NewObserverPass. It
// consumes the retired-instruction counts (cycle accounting) and the
// loop events (spawn, verify, squash). Read Metrics after the detector
// is flushed. Several configurations observing one detector are cheaper
// as lanes of one Bank.
type Engine struct {
	b Bank
}

// NewEngine returns an engine for the given configuration, with a
// private LET of cfg.LETCapacity entries that it keeps current itself.
func NewEngine(cfg Config) *Engine {
	e := &Engine{}
	e.b.Reset(cfg.LETCapacity)
	e.b.Add(cfg)
	return e
}

// Infinite reports whether the engine models the unbounded machine.
func (e *Engine) Infinite() bool { return e.b.lanes[0].tus == 0 }

// Metrics returns a snapshot of the results so far.
func (e *Engine) Metrics() Metrics { return e.b.metrics(0) }

// Clock returns the elapsed cycles.
func (e *Engine) Clock() uint64 { return e.b.lanes[0].clock(e.b.instrs) }

// CheckInvariant verifies TU conservation: idle + 1 (non-speculative) +
// outstanding speculative threads == TUs. Tests call it; it is a no-op
// for the infinite machine.
func (e *Engine) CheckInvariant() error { return e.b.checkInvariant() }

// Retired implements loopdet.CountObserver (see Bank.Retired).
func (e *Engine) Retired(n, last uint64) { e.b.Retired(n, last) }

// ExecStart implements loopdet.Observer.
func (e *Engine) ExecStart(x *loopdet.Exec) { e.b.ExecStart(x) }

// IterStart implements loopdet.Observer (see Bank.IterStart).
func (e *Engine) IterStart(x *loopdet.Exec, index uint64) { e.b.IterStart(x, index) }

// ExecEnd implements loopdet.Observer (see Bank.ExecEnd).
func (e *Engine) ExecEnd(x *loopdet.Exec, reason loopdet.EndReason, index uint64) {
	e.b.ExecEnd(x, reason, index)
}

// OneShot implements loopdet.Observer: single-iteration executions never
// reach the CLS, so the engine cannot speculate on them.
func (*Engine) OneShot(t, b isa.Addr, index uint64) {}
