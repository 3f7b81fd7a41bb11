// Package loopdet implements the paper's dynamic loop detection mechanism
// (§2): the Current Loop Stack (CLS).
//
// The detector consumes the retired instruction stream and discovers loop
// executions and loop iterations on the fly, with no compiler support:
//
//   - a taken backward branch or jump to an address T not in the CLS opens
//     a new loop execution (detected at the start of its second iteration);
//   - a taken backward branch or jump to a T in the CLS ends an iteration
//     and starts the next one, popping any inner loops above it;
//   - a not-taken backward branch at the loop's highest known closing
//     address B ends both the iteration and the execution;
//   - a taken branch or jump from inside a loop body to a target outside
//     it ends the execution (break/goto);
//   - a return instruction inside a loop body ends the execution;
//   - calls never end executions (subroutine bodies are part of the
//     iteration that calls them).
//
// Loop structure events are delivered to Observers; observers that also
// implement StreamObserver additionally receive every raw instruction
// event first, in stream order.
package loopdet

import (
	"fmt"
	"strings"

	"dynloop/internal/isa"
	"dynloop/internal/trace"
)

// EndReason says why a loop execution ended.
type EndReason uint8

const (
	// EndBackEdge is the normal termination: the closing branch at B was
	// not taken.
	EndBackEdge EndReason = iota
	// EndExit is a taken branch or jump from inside the body to a target
	// outside it (break, goto).
	EndExit
	// EndReturn is a return instruction inside the loop body.
	EndReturn
	// EndOuter means an enclosing loop iterated or terminated, implicitly
	// ending this inner execution.
	EndOuter
	// EndEvicted means the CLS overflowed and dropped this (deepest)
	// entry.
	EndEvicted
	// EndFlush means Flush was called (end of the measured stream).
	EndFlush
)

// String names the reason.
func (r EndReason) String() string {
	switch r {
	case EndBackEdge:
		return "backedge"
	case EndExit:
		return "exit"
	case EndReturn:
		return "return"
	case EndOuter:
		return "outer"
	case EndEvicted:
		return "evicted"
	case EndFlush:
		return "flush"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// Exec is one loop execution tracked by the CLS. A *Exec is valid from
// the ExecStart that hands it out until the ExecEnd that retires it
// returns: like an entry of the paper's fixed CLS table, the detector
// then reuses it for a later execution. Within that window observers
// receive the same pointer for every event of the execution and may
// compare pointers or IDs; they must not mutate it, and must not keep
// the pointer past ExecEnd (copy the fields, or key state by ID).
type Exec struct {
	// ID is unique across the run.
	ID uint64
	// T is the loop identifier: the target address of its backward
	// branches.
	T isa.Addr
	// B is the highest closing-branch address observed so far; it only
	// grows during an execution.
	B isa.Addr
	// Iters counts iterations started. It is 2 at detection (the first
	// iteration is only discovered once it has finished, §2.2).
	Iters int
	// StartIndex is the dynamic index of the detecting backward branch.
	StartIndex uint64
	// IterStartIndex is the dynamic index of the first instruction of the
	// current iteration.
	IterStartIndex uint64
	// Depth is the CLS depth at push time (0 = bottom/outermost).
	Depth int
}

// Observer receives loop structure events. Callbacks are invoked
// synchronously in stream order.
type Observer interface {
	// ExecStart reports a newly detected loop execution; it is
	// immediately followed by IterStart for iteration 2.
	ExecStart(x *Exec)
	// IterStart reports that iteration x.Iters has begun. index is the
	// dynamic index of the closing backward branch; the new iteration's
	// first instruction is index+1.
	IterStart(x *Exec, index uint64)
	// ExecEnd reports that the execution ended at dynamic index for the
	// given reason. x.Iters is the final iteration count.
	ExecEnd(x *Exec, reason EndReason, index uint64)
	// OneShot reports a single-iteration loop execution (a not-taken
	// backward branch whose target was not in the CLS). Such executions
	// never enter the CLS.
	OneShot(t, b isa.Addr, index uint64)
}

// StreamObserver is an Observer that also wants the raw instruction
// stream. Instr is called before any loop event derived from that
// instruction.
type StreamObserver interface {
	Observer
	// Instr receives every retired instruction; the pointee is reused.
	Instr(ev *trace.Event)
}

// BatchStreamObserver is a StreamObserver whose raw-stream delivery can
// take contiguous runs of events at once. The detector guarantees that a
// run never spans a loop event: every loop callback derived from an
// instruction in the run is invoked after InstrBatch returns, and the
// triggering instruction is always the run's last element. The CLS is
// therefore in a single consistent state for the whole run, which lets
// observers hoist per-instruction state lookups out of their inner loop.
// The slice is reused by the producer (see the trace package comment on
// batch lifetime).
type BatchStreamObserver interface {
	StreamObserver
	// InstrBatch receives a contiguous run of retired instructions, in
	// stream order, equivalent to calling Instr for each element.
	InstrBatch(evs []trace.Event)
}

// NopObserver implements Observer with no-ops; embed it to implement only
// some callbacks.
type NopObserver struct{}

// ExecStart does nothing.
func (NopObserver) ExecStart(*Exec) {}

// IterStart does nothing.
func (NopObserver) IterStart(*Exec, uint64) {}

// ExecEnd does nothing.
func (NopObserver) ExecEnd(*Exec, EndReason, uint64) {}

// OneShot does nothing.
func (NopObserver) OneShot(isa.Addr, isa.Addr, uint64) {}

// Stats are aggregate detector counters.
type Stats struct {
	// Instrs is the number of instructions consumed.
	Instrs uint64
	// Pushes counts loop executions entered into the CLS.
	Pushes uint64
	// OneShots counts single-iteration executions.
	OneShots uint64
	// IterStarts counts iteration-start events.
	IterStarts uint64
	// Evictions counts CLS overflow evictions.
	Evictions uint64
	// MaxDepth is the deepest CLS occupancy observed.
	MaxDepth int
}

// Config parametrises a Detector.
type Config struct {
	// Capacity bounds the CLS (the paper uses 16). 0 means unbounded.
	Capacity int
	// FlushInterval, when positive, flushes the CLS every that many
	// instructions — the paper's §2.2 safety valve against entries
	// stranded by never-returning calls ("such situation could be handled
	// by periodically flushing the contents of the CLS"). Active loops
	// are simply re-detected at their next backward branch.
	FlushInterval uint64
}

// Detector is the CLS mechanism. Create with New, attach observers, then
// feed it the instruction stream (it implements both trace.Consumer and
// trace.BatchConsumer; the batch path is the fast one) and call Flush at
// the end.
type Detector struct {
	capacity  int
	flushMask uint64 // 0 = disabled; otherwise flush when instrs reaches the next multiple
	flushAt   uint64
	cls       []*Exec // cls[0] is the deepest/outermost entry
	free      []*Exec // retired executions, reused by push
	obs       []Observer
	stream    []streamSink
	nextID    uint64
	last      uint64
	stats     Stats
}

// streamSink is one attached raw-stream observer with its (possibly
// adapted) batch delivery path resolved at attachment time, so the hot
// loop never type-asserts.
type streamSink struct {
	scalar StreamObserver
	batch  BatchStreamObserver // nil when scalar-only
}

func (s *streamSink) deliver(evs []trace.Event) {
	if s.batch != nil {
		s.batch.InstrBatch(evs)
		return
	}
	for i := range evs {
		s.scalar.Instr(&evs[i])
	}
}

// New returns a detector with the given configuration.
func New(cfg Config) *Detector {
	d := &Detector{capacity: cfg.Capacity}
	if cfg.FlushInterval > 0 {
		d.flushMask = cfg.FlushInterval
		d.flushAt = cfg.FlushInterval
	}
	return d
}

// AddObserver attaches an observer; observers are invoked in attachment
// order. Observers that implement StreamObserver also receive raw
// events, via InstrBatch when they implement BatchStreamObserver.
func (d *Detector) AddObserver(o Observer) {
	d.obs = append(d.obs, o)
	if s, ok := o.(StreamObserver); ok {
		sink := streamSink{scalar: s}
		if b, ok := o.(BatchStreamObserver); ok {
			sink.batch = b
		}
		d.stream = append(d.stream, sink)
	}
}

// Init implements trace.Pass; a fresh detector needs no setup.
func (d *Detector) Init() {}

// Finalize implements trace.Pass by flushing the CLS, so a detector (with
// its observers) is directly schedulable as one pass of a fused
// multi-pass traversal — each pass owning a private detector is what
// lets CLS-capacity ablations share one instruction stream.
func (d *Detector) Finalize() { d.Flush() }

// Depth returns the current CLS occupancy.
func (d *Detector) Depth() int { return len(d.cls) }

// Top returns the innermost active execution, or nil.
func (d *Detector) Top() *Exec {
	if len(d.cls) == 0 {
		return nil
	}
	return d.cls[len(d.cls)-1]
}

// At returns the execution at stack position i (0 = outermost).
func (d *Detector) At(i int) *Exec { return d.cls[i] }

// Stats returns the aggregate counters so far.
func (d *Detector) Stats() Stats { return d.stats }

// Consume processes one retired instruction (trace.Consumer).
func (d *Detector) Consume(ev *trace.Event) {
	for i := range d.stream {
		d.stream[i].scalar.Instr(ev)
	}
	d.step(ev)
}

// ConsumeBatch processes a batch of retired instructions
// (trace.BatchConsumer) with the same observable behaviour as calling
// Consume per event: raw-stream observers receive the events in
// contiguous runs that end at each control-transfer instruction (the
// only kind that can produce loop events) and at periodic-flush
// boundaries, then the loop logic for that instruction runs. Most
// instructions are neither, so the inner loop touches no interfaces.
func (d *Detector) ConsumeBatch(evs []trace.Event) {
	if len(evs) == 0 {
		return
	}
	if d.flushMask != 0 {
		d.consumeBatchSlow(evs)
		return
	}
	// Fast path (no periodic flush): bulk the counters, so the scan costs
	// one kind test per instruction.
	d.stats.Instrs += uint64(len(evs))
	start := 0
	for i := range evs {
		ev := &evs[i]
		in := ev.Instr
		k := in.Kind
		if k != isa.KindBranch && k != isa.KindJump && k != isa.KindRet {
			continue
		}
		d.emitStream(evs[start : i+1])
		start = i + 1
		d.last = ev.Index
		d.transfer(ev)
	}
	d.emitStream(evs[start:])
	d.last = evs[len(evs)-1].Index
}

// ConsumeBatchSegmented processes a batch whose control-transfer indices
// the producer already knows (trace.SegmentedBatchConsumer): ctl lists,
// ascending, the indices into evs of the events with Kind branch, jump
// or ret. The result is identical to ConsumeBatch; the detector just
// skips its own per-event kind scan and walks boundary to boundary.
func (d *Detector) ConsumeBatchSegmented(evs []trace.Event, ctl []int32) {
	if len(evs) == 0 {
		return
	}
	if d.flushMask != 0 {
		d.consumeBatchSlow(evs)
		return
	}
	d.stats.Instrs += uint64(len(evs))
	start := 0
	for _, ci := range ctl {
		i := int(ci)
		ev := &evs[i]
		d.emitStream(evs[start : i+1])
		start = i + 1
		d.last = ev.Index
		d.transfer(ev)
	}
	d.emitStream(evs[start:])
	d.last = evs[len(evs)-1].Index
}

// NeedPlanes implements trace.PlaneDeclarer: the CLS rules read only the
// control facet, so a detector with no raw-stream observers (and no
// periodic flush, whose boundary can fall mid-run) is control-only and
// producers may deliver compact control-plane batches. Attaching a
// StreamObserver — the §4 statistics collectors, the speculation engine
// — pulls the detector back to full-facet delivery, since raw events
// must carry the data facet those observers read.
func (d *Detector) NeedPlanes() trace.Planes {
	if len(d.stream) == 0 && d.flushMask == 0 {
		return trace.PlaneCtl
	}
	return trace.PlaneCtl | trace.PlaneData
}

// ConsumeCtlBatch processes a control-plane batch
// (trace.CtlBatchConsumer). The producer always supplies the
// control-transfer indices, so the detector skips straight-line runs
// entirely: the loop below touches only the boundary events, and the
// run between boundaries costs nothing at all (there are no stream
// observers on this path — see NeedPlanes).
func (d *Detector) ConsumeCtlBatch(evs []trace.CtlEvent, ctl []int32) {
	if len(evs) == 0 {
		return
	}
	if len(d.stream) != 0 || d.flushMask != 0 {
		panic("loopdet: control-plane delivery to a full-facet detector")
	}
	d.stats.Instrs += uint64(len(evs))
	for _, ci := range ctl {
		ev := &evs[ci]
		d.last = ev.Index
		d.transferCtl(ev)
	}
	d.last = evs[len(evs)-1].Index
}

// transferCtl is transfer over the control-plane event representation;
// the two must stay rule-for-rule identical.
func (d *Detector) transferCtl(ev *trace.CtlEvent) {
	in := ev.Instr
	switch in.Kind {
	case isa.KindBranch:
		if in.Target <= ev.PC {
			d.backward(ev.PC, in.Target, ev.Taken, ev.Index)
		} else if ev.Taken {
			d.exitTransfer(ev.PC, in.Target, ev.Index)
		}
	case isa.KindJump:
		if in.Target <= ev.PC {
			d.backward(ev.PC, in.Target, true, ev.Index)
		} else {
			d.exitTransfer(ev.PC, in.Target, ev.Index)
		}
	case isa.KindRet:
		d.ret(ev.PC, ev.Index)
	}
}

// transfer applies the loop rules for one control-transfer instruction
// (a no-op for any other kind). Every consume path funnels through it so
// the scalar and batch paths cannot drift apart.
func (d *Detector) transfer(ev *trace.Event) {
	in := ev.Instr
	switch in.Kind {
	case isa.KindBranch:
		if in.Target <= ev.PC {
			d.backward(ev.PC, in.Target, ev.Taken, ev.Index)
		} else if ev.Taken {
			d.exitTransfer(ev.PC, in.Target, ev.Index)
		}
	case isa.KindJump:
		if in.Target <= ev.PC {
			d.backward(ev.PC, in.Target, true, ev.Index)
		} else {
			d.exitTransfer(ev.PC, in.Target, ev.Index)
		}
	case isa.KindRet:
		d.ret(ev.PC, ev.Index)
	}
}

// consumeBatchSlow is the periodic-flush variant: the flush boundary can
// fall on any instruction, so the counters advance per event.
func (d *Detector) consumeBatchSlow(evs []trace.Event) {
	start := 0
	for i := range evs {
		ev := &evs[i]
		d.stats.Instrs++
		d.last = ev.Index
		flushDue := d.stats.Instrs >= d.flushAt
		k := ev.Instr.Kind
		if !flushDue && k != isa.KindBranch && k != isa.KindJump && k != isa.KindRet {
			continue
		}
		d.emitStream(evs[start : i+1])
		start = i + 1
		if flushDue {
			d.flushAt += d.flushMask
			d.Flush()
		}
		d.transfer(ev)
	}
	d.emitStream(evs[start:])
}

// emitStream delivers a contiguous run of raw events to the stream
// observers.
func (d *Detector) emitStream(evs []trace.Event) {
	if len(evs) == 0 {
		return
	}
	for i := range d.stream {
		d.stream[i].deliver(evs)
	}
}

// step runs the per-instruction bookkeeping and loop logic (everything
// Consume does except raw-stream delivery).
func (d *Detector) step(ev *trace.Event) {
	d.stats.Instrs++
	d.last = ev.Index
	if d.flushMask != 0 && d.stats.Instrs >= d.flushAt {
		d.flushAt += d.flushMask
		d.Flush()
	}
	d.transfer(ev)
}

// find returns the stack index of the entry with target t, or -1.
func (d *Detector) find(t isa.Addr) int {
	for i := len(d.cls) - 1; i >= 0; i-- {
		if d.cls[i].T == t {
			return i
		}
	}
	return -1
}

// backward handles a backward branch (taken or not) or jump to t from pc.
func (d *Detector) backward(pc, t isa.Addr, taken bool, idx uint64) {
	i := d.find(t)
	if i < 0 {
		if !taken {
			// A complete one-iteration execution, §2.2: "a loop with only
			// one iteration has been executed".
			d.stats.OneShots++
			for _, o := range d.obs {
				o.OneShot(t, pc, idx)
			}
			return
		}
		// The transfer may simultaneously exit inner loops whose body
		// contains pc but not t.
		d.exitTransfer(pc, t, idx)
		d.push(t, pc, idx)
		return
	}
	x := d.cls[i]
	if taken {
		// Iteration of x ends; everything nested above it ends with it.
		d.popAbove(i, EndOuter, idx)
		if pc > x.B {
			x.B = pc
		}
		x.Iters++
		x.IterStartIndex = idx + 1
		d.stats.IterStarts++
		for _, o := range d.obs {
			o.IterStart(x, idx)
		}
		return
	}
	// Not taken: terminates the execution only at the highest known
	// closing address (§2.2: "if the branch is not taken and the value of
	// field B is lower than or equal to PC").
	if x.B <= pc {
		d.popAbove(i, EndOuter, idx)
		d.popTop(EndBackEdge, idx)
	}
}

// exitTransfer applies the exit rule: every CLS entry whose body contains
// pc but not tgt is removed (its execution ended). Removals are reported
// innermost-first.
func (d *Detector) exitTransfer(pc, tgt isa.Addr, idx uint64) {
	for i := len(d.cls) - 1; i >= 0; i-- {
		x := d.cls[i]
		if x.T <= pc && pc <= x.B && (tgt < x.T || tgt > x.B) {
			d.removeAt(i, EndExit, idx)
		}
	}
}

// ret applies the return rule: every CLS entry whose body contains pc is
// removed.
func (d *Detector) ret(pc isa.Addr, idx uint64) {
	for i := len(d.cls) - 1; i >= 0; i-- {
		x := d.cls[i]
		if x.T <= pc && pc <= x.B {
			d.removeAt(i, EndReturn, idx)
		}
	}
}

// push opens a new execution for loop t with closing branch at pc.
func (d *Detector) push(t, pc isa.Addr, idx uint64) {
	if d.capacity > 0 && len(d.cls) >= d.capacity {
		// Overflow drops the deepest (outermost) entry, §2.2.
		d.stats.Evictions++
		bottom := d.cls[0]
		copy(d.cls, d.cls[1:])
		d.cls = d.cls[:len(d.cls)-1]
		d.end(bottom, EndEvicted, idx)
	}
	var x *Exec
	if n := len(d.free); n > 0 {
		x = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		x = new(Exec)
	}
	d.nextID++
	*x = Exec{
		ID:             d.nextID,
		T:              t,
		B:              pc,
		Iters:          2,
		StartIndex:     idx,
		IterStartIndex: idx + 1,
		Depth:          len(d.cls),
	}
	d.cls = append(d.cls, x)
	d.stats.Pushes++
	d.stats.IterStarts++
	if len(d.cls) > d.stats.MaxDepth {
		d.stats.MaxDepth = len(d.cls)
	}
	for _, o := range d.obs {
		o.ExecStart(x)
	}
	for _, o := range d.obs {
		o.IterStart(x, idx)
	}
}

// popAbove removes all entries strictly above stack index i, innermost
// first.
func (d *Detector) popAbove(i int, r EndReason, idx uint64) {
	for len(d.cls) > i+1 {
		d.popTop(r, idx)
	}
}

// popTop removes the innermost entry.
func (d *Detector) popTop(r EndReason, idx uint64) {
	x := d.cls[len(d.cls)-1]
	d.cls = d.cls[:len(d.cls)-1]
	d.end(x, r, idx)
}

// removeAt removes the entry at stack index i (possibly mid-stack: the
// exit rule is per-entry and overlapped loops or an understated B can
// leave non-matching entries above a matching one).
func (d *Detector) removeAt(i int, r EndReason, idx uint64) {
	x := d.cls[i]
	copy(d.cls[i:], d.cls[i+1:])
	d.cls = d.cls[:len(d.cls)-1]
	d.end(x, r, idx)
}

// end reports the end of x, already off the stack, to every observer and
// then recycles it: no observer may hold x once its ExecEnd returned.
func (d *Detector) end(x *Exec, r EndReason, idx uint64) {
	for _, o := range d.obs {
		o.ExecEnd(x, r, idx)
	}
	d.free = append(d.free, x)
}

// Flush ends every active execution (reason EndFlush), innermost first.
// Call it when the measured stream ends so observers can finalise.
func (d *Detector) Flush() {
	for len(d.cls) > 0 {
		d.popTop(EndFlush, d.last+1)
	}
}

// DumpCLS renders the current stack for debugging, outermost first.
func (d *Detector) DumpCLS() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CLS depth=%d\n", len(d.cls))
	for i, x := range d.cls {
		fmt.Fprintf(&b, "  [%d] T=%d B=%d iters=%d id=%d\n", i, x.T, x.B, x.Iters, x.ID)
	}
	return b.String()
}
