// Package taskpred implements a simplified next-task predictor in the
// style of Jacobson et al.'s "Control Flow Speculation in Multiscalar
// Processors" — the related work the paper contrasts itself against in
// §3: there, threads (tasks) are delimited by the compiler and a runtime
// history table predicts which task follows which.
//
// Our adaptation keeps the paper's hardware-only setting: the "tasks"
// are loop executions discovered by the CLS, and the predictor guesses,
// at each execution start, which loop will start its next execution —
// from a history table indexed by the recent execution-target sequence.
// Comparing its accuracy against the LET's iteration-count accuracy
// shows why the paper speculates *iterations of the current loop* rather
// than *which loop comes next*: the former is the easier question.
package taskpred

import (
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
)

// Config parametrises the predictor.
type Config struct {
	// HistoryLength is the number of recent execution targets hashed
	// into the table index (default 2, as in path-based next-task
	// prediction).
	HistoryLength int
	// TableBits sizes the history table at 2^TableBits entries
	// (default 12).
	TableBits uint
}

func (c *Config) setDefaults() {
	if c.HistoryLength == 0 {
		c.HistoryLength = 2
	}
	if c.TableBits == 0 {
		c.TableBits = 12
	}
}

// Predictor observes loop executions and scores next-execution-target
// predictions. Attach it as a detector observer (or bundle it into one
// pass of a fused multi-pass traversal with harness.NewObserverPass).
type Predictor struct {
	loopdet.NopObserver
	cfg     Config
	table   []isa.Addr
	valid   []bool
	mask    uint32
	history []isa.Addr

	predictions uint64
	hits        uint64
}

// New returns a predictor with the given configuration.
func New(cfg Config) *Predictor {
	cfg.setDefaults()
	n := 1 << cfg.TableBits
	return &Predictor{
		cfg:     cfg,
		table:   make([]isa.Addr, n),
		valid:   make([]bool, n),
		mask:    uint32(n - 1),
		history: make([]isa.Addr, 0, max(cfg.HistoryLength, 0)),
	}
}

// index hashes the recent-target history.
func (p *Predictor) index() uint32 {
	h := uint32(2166136261)
	for _, t := range p.history {
		h = (h ^ uint32(t)) * 16777619
	}
	return h & p.mask
}

// ExecStart implements loopdet.Observer: score the pending prediction
// against the execution that actually started, then train and predict
// the next one.
func (p *Predictor) ExecStart(x *loopdet.Exec) {
	if len(p.history) == p.cfg.HistoryLength {
		i := p.index()
		if p.valid[i] {
			p.predictions++
			if p.table[i] == x.T {
				p.hits++
			}
		}
		p.table[i] = x.T
		p.valid[i] = true
	}
	// Shift in place once the window is full: reslicing with
	// history[1:] would walk the base pointer forward until the next
	// append reallocated, one heap allocation every HistoryLength
	// executions forever.
	switch n := len(p.history); {
	case n < p.cfg.HistoryLength:
		p.history = append(p.history, x.T)
	case n > 0:
		copy(p.history, p.history[1:])
		p.history[n-1] = x.T
	}
}

// Accuracy returns the next-execution-target prediction accuracy in
// percent, and the number of scored predictions.
func (p *Predictor) Accuracy() (float64, uint64) {
	if p.predictions == 0 {
		return 0, 0
	}
	return 100 * float64(p.hits) / float64(p.predictions), p.predictions
}
