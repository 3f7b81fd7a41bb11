package loopdet

import (
	"fmt"
	"testing"

	"dynloop/internal/isa"
	"dynloop/internal/trace"
)

// logObs records every loop callback as a string, to compare delivery
// orders between the per-event and batch paths exactly.
type logObs struct {
	log []string
}

func (o *logObs) ExecStart(x *Exec) { o.log = append(o.log, fmt.Sprintf("start %d T%d", x.ID, x.T)) }
func (o *logObs) IterStart(x *Exec, i uint64) {
	o.log = append(o.log, fmt.Sprintf("iter %d.%d @%d", x.ID, x.Iters, i))
}
func (o *logObs) ExecEnd(x *Exec, r EndReason, i uint64) {
	o.log = append(o.log, fmt.Sprintf("end %d %s @%d iters=%d", x.ID, r, i, x.Iters))
}
func (o *logObs) OneShot(t, b isa.Addr, i uint64) {
	o.log = append(o.log, fmt.Sprintf("oneshot %d-%d @%d", t, b, i))
}

// randomStream builds an arbitrary control-flow event stream with stable
// Instr pointers (events in a batch all alias the same backing program).
func randomStream(seed uint64, n int) []trace.Event {
	r := seed | 1
	next := func(m uint64) uint64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r % m
	}
	// A small pool of instructions the stream draws from.
	pool := make([]isa.Instr, 0, 48)
	for i := 0; i < 16; i++ {
		pool = append(pool, isa.Branch(isa.CondNEZ, 1, isa.Addr(next(64))))
		pool = append(pool, isa.Jump(isa.Addr(next(64))))
		pool = append(pool, isa.Nop())
	}
	pool = append(pool, isa.Ret())
	evs := make([]trace.Event, n)
	for i := range evs {
		in := &pool[next(uint64(len(pool)))]
		ev := trace.Event{Index: uint64(i), PC: isa.Addr(next(64)), Instr: in}
		if in.Kind.IsControl() && (in.Kind != isa.KindBranch || next(2) == 0) {
			ev.Taken = true
			ev.Target = in.Target
		}
		evs[i] = ev
	}
	return evs
}

// TestConsumeBatchMatchesConsume: for arbitrary streams, any batch
// chunking must produce exactly the loop callback sequence and stats of
// per-event Consume, also with the periodic-flush safety valve armed.
func TestConsumeBatchMatchesConsume(t *testing.T) {
	for _, flush := range []uint64{0, 97} {
		for _, chunk := range []int{1, 2, 3, 7, 64, 1000} {
			for seed := uint64(1); seed <= 5; seed++ {
				evs := randomStream(seed*2654435761, 1000)

				ref := New(Config{Capacity: 8, FlushInterval: flush})
				refObs := &logObs{}
				ref.AddObserver(refObs)
				for i := range evs {
					ev := evs[i] // copy: Consume pointees may be reused
					ref.Consume(&ev)
				}
				ref.Flush()

				got := New(Config{Capacity: 8, FlushInterval: flush})
				gotObs := &logObs{}
				got.AddObserver(gotObs)
				for i := 0; i < len(evs); i += chunk {
					got.ConsumeBatch(evs[i:min(i+chunk, len(evs))])
				}
				got.Flush()

				if len(refObs.log) != len(gotObs.log) {
					t.Fatalf("flush=%d chunk=%d seed=%d: %d callbacks, want %d",
						flush, chunk, seed, len(gotObs.log), len(refObs.log))
				}
				for i := range refObs.log {
					if refObs.log[i] != gotObs.log[i] {
						t.Fatalf("flush=%d chunk=%d seed=%d: callback %d = %q, want %q",
							flush, chunk, seed, i, gotObs.log[i], refObs.log[i])
					}
				}
				if ref.Stats() != got.Stats() {
					t.Fatalf("flush=%d chunk=%d seed=%d: stats %+v, want %+v",
						flush, chunk, seed, got.Stats(), ref.Stats())
				}
			}
		}
	}
}

// transfers projects a full stream onto the control plane: its
// branch/jump/ret events, field for field.
func transfers(evs []trace.Event) []trace.CtlEvent {
	var out []trace.CtlEvent
	for _, ev := range evs {
		if trace.IsTransfer(ev.Instr.Kind) {
			out = append(out, trace.CtlEvent{Index: ev.Index, PC: ev.PC, Instr: ev.Instr,
				Taken: ev.Taken, Target: ev.Target})
		}
	}
	return out
}

// countObs is a CountObserver that logs loop callbacks like logObs and
// coalesces consecutive Retired calls into one "retired" line, so logs
// compare equal however the producer cut its batches.
type countObs struct {
	log     []string
	n, last uint64
}

func (o *countObs) Retired(n, last uint64) {
	if n == 0 {
		panic("Retired(0)")
	}
	o.n += n
	o.last = last
}

func (o *countObs) add(format string, args ...any) {
	if o.n > 0 {
		o.log = append(o.log, fmt.Sprintf("retired %d ..@%d", o.n, o.last))
		o.n = 0
	}
	if format != "" {
		o.log = append(o.log, fmt.Sprintf(format, args...))
	}
}

func (o *countObs) ExecStart(x *Exec) { o.add("start %d T%d", x.ID, x.T) }
func (o *countObs) IterStart(x *Exec, i uint64) {
	o.add("iter %d.%d @%d", x.ID, x.Iters, i)
}
func (o *countObs) ExecEnd(x *Exec, r EndReason, i uint64) {
	o.add("end %d %s @%d iters=%d", x.ID, r, i, x.Iters)
}
func (o *countObs) OneShot(t, b isa.Addr, i uint64) { o.add("oneshot %d-%d @%d", t, b, i) }

// TestConsumeCtlBatchMatchesBatch pins the control-plane contract on the
// detector: a detector with only count observers declares itself
// control-only, and fed transfer-only batches — cut anywhere, including
// batches with no transfer at all — it must deliver exactly the loop
// callbacks, run counts and stats of per-event full-plane delivery, for
// arbitrary streams, with and without the periodic flush armed.
func TestConsumeCtlBatchMatchesBatch(t *testing.T) {
	for _, flush := range []uint64{0, 97} {
		for _, chunk := range []int{1, 3, 64, 1000} {
			for seed := uint64(1); seed <= 5; seed++ {
				evs := randomStream(seed*2654435761, 1000)

				ref := New(Config{Capacity: 8, FlushInterval: flush})
				refObs := &countObs{}
				ref.AddObserver(refObs)
				ctl := New(Config{Capacity: 8, FlushInterval: flush})
				ctlObs := &countObs{}
				ctl.AddObserver(ctlObs)
				if got := trace.PlanesOf(ctl); got != trace.PlaneCtl {
					t.Fatalf("count-observed detector planes = %v", got)
				}

				for i := range evs {
					ev := evs[i]
					ref.Consume(&ev)
				}
				for i := 0; i < len(evs); i += chunk {
					end := min(i+chunk, len(evs))
					ctl.ConsumeCtlBatch(transfers(evs[i:end]), evs[i].Index, uint64(end-i))
				}
				ref.Flush()
				ctl.Flush()
				refObs.add("")
				ctlObs.add("")

				if len(refObs.log) != len(ctlObs.log) {
					t.Fatalf("flush=%d chunk=%d seed=%d: %d callbacks, want %d",
						flush, chunk, seed, len(ctlObs.log), len(refObs.log))
				}
				for i := range refObs.log {
					if refObs.log[i] != ctlObs.log[i] {
						t.Fatalf("flush=%d chunk=%d seed=%d: callback %d = %q, want %q",
							flush, chunk, seed, i, ctlObs.log[i], refObs.log[i])
					}
				}
				if ref.Stats() != ctl.Stats() {
					t.Fatalf("flush=%d chunk=%d seed=%d: stats %+v, want %+v",
						flush, chunk, seed, ctl.Stats(), ref.Stats())
				}
			}
		}
	}

	withFlush := New(Config{Capacity: 8, FlushInterval: 64})
	if got := trace.PlanesOf(withFlush); got != trace.PlaneCtl {
		t.Fatalf("periodic-flush detector planes = %v", got)
	}
}
