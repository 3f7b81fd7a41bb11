// Package trace defines the dynamic instruction event model that connects
// the interpreter (the producer) to the loop detector, statistics
// collectors and speculation engine (the consumers).
//
// The interpreter retires instructions into a reusable batch buffer and
// flushes it through the BatchConsumer interface; one ConsumeBatch call
// replaces thousands of per-instruction interface dispatches. The older
// per-event Consumer interface remains for callers that genuinely want
// one event at a time; AsBatch adapts such a consumer to the batch
// pipeline.
//
// # Batch lifetime
//
// The batch slice passed to ConsumeBatch — like the pointee passed to
// Consume — is owned by the producer and reused for the next batch as
// soon as the call returns. Consumers must copy any event (or field)
// they want to keep beyond the callback; retaining the slice itself is
// never safe. Event.Instr pointers are the exception: they point into
// the program image and stay valid for the lifetime of the program.
// TestBatchBufferIsReused and the -race CI job enforce these rules.
package trace

import "dynloop/internal/isa"

// Event describes one retired dynamic instruction.
type Event struct {
	// Index is the 0-based dynamic instruction number.
	Index uint64
	// PC is the address of the instruction.
	PC isa.Addr
	// Instr points at the static instruction. The pointer stays valid for
	// the lifetime of the program; only the Event struct itself is reused.
	Instr *isa.Instr
	// Taken reports the branch outcome; it is true for jumps, calls and
	// returns.
	Taken bool
	// Target is the resolved control-transfer destination when Taken
	// (for returns it is the popped return address). Zero otherwise.
	Target isa.Addr

	// The data facet, used by the §4 live-in statistics.

	// WroteReg/WrittenReg/WrittenVal describe the register write, if any.
	WroteReg   bool
	WrittenReg isa.Reg
	WrittenVal int64
	// MemAddr is the effective address of a load or store.
	MemAddr uint64
	// MemVal is the value loaded or stored.
	MemVal int64
}

// Consumer receives retired-instruction events one at a time.
type Consumer interface {
	// Consume processes one event. The pointee is reused by the producer
	// after the call returns.
	Consume(ev *Event)
}

// BatchConsumer receives retired-instruction events in batches. This is
// the pipeline's native delivery interface: producers (the interpreter,
// the trace-file replayer) fill a reusable buffer and flush it here.
type BatchConsumer interface {
	// ConsumeBatch processes evs in stream order. The slice and its
	// backing array are reused by the producer after the call returns;
	// consumers must copy anything they keep (see the package comment).
	ConsumeBatch(evs []Event)
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(ev *Event)

// Consume calls f(ev).
func (f ConsumerFunc) Consume(ev *Event) { f(ev) }

// ConsumeBatch calls f for each event in order.
func (f ConsumerFunc) ConsumeBatch(evs []Event) {
	for i := range evs {
		f(&evs[i])
	}
}

// BatchConsumerFunc adapts a function to the BatchConsumer interface.
type BatchConsumerFunc func(evs []Event)

// ConsumeBatch calls f(evs).
func (f BatchConsumerFunc) ConsumeBatch(evs []Event) { f(evs) }

// batchAdapter delivers a batch to a per-event consumer.
type batchAdapter struct{ c Consumer }

func (a batchAdapter) ConsumeBatch(evs []Event) {
	for i := range evs {
		a.c.Consume(&evs[i])
	}
}

// AsBatch adapts a legacy per-event consumer to the batch interface.
// Consumers that already implement BatchConsumer (every consumer in this
// module does) are returned unwrapped, so their native batch fast path
// is used.
func AsBatch(c Consumer) BatchConsumer {
	if bc, ok := c.(BatchConsumer); ok {
		return bc
	}
	return batchAdapter{c}
}

// Tee fans one event stream out to several per-event consumers in order.
type Tee []Consumer

// Consume forwards ev to every consumer in order.
func (t Tee) Consume(ev *Event) {
	for _, c := range t {
		c.Consume(ev)
	}
}

// ConsumeBatch forwards the batch to every consumer, using each
// consumer's native batch path when it has one. Batch-capable members
// see whole batches; per-event members see the events one at a time, in
// order.
func (t Tee) ConsumeBatch(evs []Event) {
	for _, c := range t {
		if bc, ok := c.(BatchConsumer); ok {
			bc.ConsumeBatch(evs)
			continue
		}
		for i := range evs {
			c.Consume(&evs[i])
		}
	}
}

// BatchTee fans one batch stream out to several batch consumers in
// order. It is the fully batch-native composition the harness builds.
type BatchTee []BatchConsumer

// ConsumeBatch forwards the batch to every consumer in order.
func (t BatchTee) ConsumeBatch(evs []Event) {
	for _, c := range t {
		c.ConsumeBatch(evs)
	}
}

// NeedPlanes reports the union of the members' facet needs, so a tee is
// control-only exactly when every member is.
func (t BatchTee) NeedPlanes() Planes {
	var p Planes
	for _, c := range t {
		p |= PlanesOf(c)
	}
	if p == 0 {
		p = PlaneCtl
	}
	return p
}

// ConsumeCtlBatch forwards a control-plane batch to every consumer.
// Producers only deliver here when NeedPlanes() == PlaneCtl, which
// guarantees every member implements CtlBatchConsumer.
func (t BatchTee) ConsumeCtlBatch(evs []CtlEvent, first, n uint64) {
	for _, c := range t {
		c.(CtlBatchConsumer).ConsumeCtlBatch(evs, first, n)
	}
}

// Counter counts retired instructions by kind. The zero value is ready to
// use. Per-kind tallies need every instruction, not just the transfers,
// so a Counter always takes the full-event plane.
type Counter struct {
	// Total is the number of events seen.
	Total uint64
	// ByKind counts events per instruction kind.
	ByKind [16]uint64
	// TakenBranches counts taken conditional branches.
	TakenBranches uint64
	// Branches counts all conditional branches.
	Branches uint64
}

// Consume tallies the event.
func (c *Counter) Consume(ev *Event) {
	c.Total++
	c.ByKind[ev.Instr.Kind]++
	if ev.Instr.Kind == isa.KindBranch {
		c.Branches++
		if ev.Taken {
			c.TakenBranches++
		}
	}
}

// ConsumeBatch tallies every event in the batch.
func (c *Counter) ConsumeBatch(evs []Event) {
	c.Total += uint64(len(evs))
	for i := range evs {
		ev := &evs[i]
		c.ByKind[ev.Instr.Kind]++
		if ev.Instr.Kind == isa.KindBranch {
			c.Branches++
			if ev.Taken {
				c.TakenBranches++
			}
		}
	}
}

// Recorder stores copies of every event; it is a test helper.
type Recorder struct {
	// Events holds the copied events in order.
	Events []Event
}

// Consume appends a copy of the event.
func (r *Recorder) Consume(ev *Event) { r.Events = append(r.Events, *ev) }

// ConsumeBatch appends a copy of every event in the batch.
func (r *Recorder) ConsumeBatch(evs []Event) { r.Events = append(r.Events, evs...) }

// Hash is a 64-bit FNV-1a accumulator over the control plane of the
// stream: the PC, outcome and target of every transfer event
// (IsTransfer), then the retired-instruction count. For a given program
// that fixes the whole executed path — straight-line code and calls
// between two transfers are static — so two runs with the same seed
// produce the same hash and diverging runs almost surely do not;
// determinism tests rely on it. Both planes fold the same values, so the sum does
// not depend on the plane or on where batches are cut.
type Hash struct {
	// Sum is the hash of the stream so far; read it after the run.
	Sum uint64

	acc uint64 // FNV-1a fold over the transfer events
	n   uint64 // retired instructions
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewHash returns a Hash with the standard FNV-1a offset basis.
func NewHash() *Hash {
	h := &Hash{acc: fnvOffset}
	h.finish()
	return h
}

// fold mixes one transfer event into the running accumulator.
func fold(s uint64, pc isa.Addr, taken bool, target isa.Addr) uint64 {
	s = (s ^ uint64(pc)) * fnvPrime
	t := uint64(0)
	if taken {
		t = 1
	}
	s = (s ^ t) * fnvPrime
	return (s ^ uint64(target)) * fnvPrime
}

// finish folds the instruction count into Sum.
func (h *Hash) finish() { h.Sum = (h.acc ^ h.n) * fnvPrime }

// Consume folds one retired instruction into the hash.
func (h *Hash) Consume(ev *Event) {
	if IsTransfer(ev.Instr.Kind) {
		h.acc = fold(h.acc, ev.PC, ev.Taken, ev.Target)
	}
	h.n++
	h.finish()
}

// ConsumeBatch folds a full-plane batch into the hash, keeping the
// running accumulator in a register across the loop.
func (h *Hash) ConsumeBatch(evs []Event) {
	s := h.acc
	for i := range evs {
		if ev := &evs[i]; IsTransfer(ev.Instr.Kind) {
			s = fold(s, ev.PC, ev.Taken, ev.Target)
		}
	}
	h.acc = s
	h.n += uint64(len(evs))
	h.finish()
}

// ConsumeCtlBatch folds a control-plane batch into the hash: the same
// transfer events and count as the full plane, without the kind scan.
func (h *Hash) ConsumeCtlBatch(evs []CtlEvent, _, n uint64) {
	s := h.acc
	for i := range evs {
		ev := &evs[i]
		s = fold(s, ev.PC, ev.Taken, ev.Target)
	}
	h.acc = s
	h.n += n
	h.finish()
}
