package trace

import "dynloop/internal/isa"

// The control plane carries exactly what the paper's loop-detection
// mechanism reads (§2.1–2.2): the control transfers that can start,
// iterate or end a loop execution — conditional branches, jumps and
// returns — and how many instructions retired around them. Every other
// instruction is only counted. A control-plane batch is therefore the
// batch's transfer events plus the span of dynamic instructions it
// covers; consumers that need per-instruction detail (trace recording,
// per-kind tallies) negotiate the full-event plane instead, and the §4
// data statistics add the data tap (see Tap).
//
// Calls are not on the control plane: they never end a loop run (§2.1),
// and no control-only consumer reads them.

// CtlEvent is one control-transfer event on the control plane: a
// retired branch, jump or return, with the five fields a control-flow
// consumer (loop detector, branch predictor, stream hash) reads.
//
// The batch-lifetime rules of Event apply unchanged: the slice passed to
// ConsumeCtlBatch is owned by the producer and reused after the call
// returns; Instr pointers stay valid for the lifetime of the program.
type CtlEvent struct {
	// Index is the 0-based dynamic instruction number.
	Index uint64
	// PC is the address of the instruction.
	PC isa.Addr
	// Instr points at the static instruction.
	Instr *isa.Instr
	// Taken reports the branch outcome; it is true for jumps and
	// returns.
	Taken bool
	// Target is the resolved control-transfer destination when Taken
	// (for returns it is the popped return address). Zero otherwise.
	Target isa.Addr
}

// IsTransfer reports whether instructions of kind k are control-plane
// events: the branches, jumps and returns that end loop-detector runs.
func IsTransfer(k isa.Kind) bool {
	return k == isa.KindBranch || k == isa.KindJump || k == isa.KindRet
}

// Planes is a bitmask of the event facets a consumer reads.
type Planes uint8

const (
	// PlaneCtl is the control facet: the transfer events (Index, PC,
	// Instr, Taken, Target) and the retired-instruction count.
	PlaneCtl Planes = 1 << iota
	// PlaneData is everything else: every retired instruction as a full
	// Event, with its data facet (WroteReg, WrittenReg, WrittenVal,
	// MemAddr, MemVal).
	PlaneData
	// PlaneTap is the data tap that rides the control plane (see Tap):
	// every load and store, and the register file at each taken
	// backward branch or jump. Only the interpreter produces it.
	PlaneTap
)

// CtlBatchConsumer receives control-plane batches. A batch covers the n
// consecutive dynamic instructions first, first+1, ..., first+n-1; evs
// holds, in stream order, the events of exactly those covered
// instructions that are transfers (IsTransfer), and nothing else. n is
// never zero; evs may be empty.
//
// Where producers cut batches is theirs to choose, and differs from the
// full plane's cuts; consumers must produce the same results however
// the stream is cut. Producers deliver here only when the sink
// implements this interface AND PlanesOf(sink) == PlaneCtl; a consumer
// that implements ConsumeCtlBatch must produce results observably
// identical to its ConsumeBatch given the same stream.
type CtlBatchConsumer interface {
	ConsumeCtlBatch(evs []CtlEvent, first, n uint64)
}

// TapBatchConsumer receives control-plane batches with their data tap.
// The batch rules of CtlBatchConsumer hold unchanged; tap holds the
// data facts of the same covered instructions and, like evs, is reused
// by the producer after the call returns. Producers deliver here only
// when the sink implements this interface AND PlanesOf(sink) ==
// PlaneCtl|PlaneTap; a tap batch may end anywhere a control-plane batch
// may, and also ends early whenever one of the tap's buffers fills.
type TapBatchConsumer interface {
	CtlBatchConsumer
	ConsumeTapBatch(evs []CtlEvent, first, n uint64, tap *Tap)
}

// PlaneDeclarer lets a consumer state which facets it reads, overriding
// the structural default of PlanesOf. Composite consumers (Broadcast,
// BatchTee) implement it to report the union of their members' needs,
// and conditional consumers (loopdet.Detector) implement it to demand
// the data facet only when an attached observer needs it.
type PlaneDeclarer interface {
	NeedPlanes() Planes
}

// PlanesOf reports the facets a consumer needs. A PlaneDeclarer answers
// for itself; otherwise a consumer that implements CtlBatchConsumer is
// control-only, and anything else needs both facets. Producers call this
// to pick the narrowest plane they may deliver.
func PlanesOf(c any) Planes {
	if d, ok := c.(PlaneDeclarer); ok {
		if p := d.NeedPlanes(); p != 0 {
			return p
		}
		return PlaneCtl
	}
	if _, ok := c.(CtlBatchConsumer); ok {
		return PlaneCtl
	}
	return PlaneCtl | PlaneData
}

// fullPlaneSink hides a consumer's control-plane capability so producers
// fall back to full-facet delivery. It implements neither
// CtlBatchConsumer nor PlaneDeclarer — that is the point.
type fullPlaneSink struct{ s BatchConsumer }

func (w fullPlaneSink) ConsumeBatch(evs []Event) { w.s.ConsumeBatch(evs) }

// ForceFullPlane wraps a consumer so PlanesOf reports both facets,
// forcing producers onto full-Event delivery regardless of the
// consumer's own capabilities: the interpreter then runs its reference
// loop. Equivalence tests use it to run the same consumer stack over
// both planes and compare results.
func ForceFullPlane(s BatchConsumer) BatchConsumer { return fullPlaneSink{s} }
