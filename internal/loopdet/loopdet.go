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
// Loop structure events are delivered to Observers. Observers that also
// implement CountObserver additionally learn how many instructions
// retired between loop events; observers that implement TapObserver
// learn each such run's start address and memory accesses, and the
// register file where executions and iterations start. Both hear about
// an instruction before any loop event derived from it.
//
// The detector consumes either event plane (see trace.Planes): the full
// plane, one trace.Event per instruction, or the control plane, which
// carries only the branches, jumps and returns the rules above react to
// plus the retired-instruction count, and with it the data tap while a
// TapObserver is attached. It never asks for the full plane.
package loopdet

import (
	"fmt"
	"strings"

	"dynloop/internal/freelist"
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

// CountObserver is an Observer that also counts the instructions
// retired between loop events — all that the speculation engine's cycle
// model and the Table-1 statistics read of the instruction stream. The
// detector calls Retired once per run: a stretch of consecutive
// instructions that ends at a control transfer (included, and reported
// before any loop event it triggers), at a periodic flush, or wherever
// the producer cut its batch. No loop event falls inside a run, so the
// CLS is in one consistent state for the whole of it.
//
// Batch cuts differ between the event planes and between producers, so
// two consecutive calls with no loop event between them must have the
// same effect as one call with the summed count. Count observers work
// on either plane and never pull the detector onto the full one.
type CountObserver interface {
	Observer
	// Retired reports n (> 0) more retired instructions, the last of
	// them at dynamic index last.
	Retired(n, last uint64)
}

// TapObserver is an Observer that also reads the data tap
// (trace.PlaneTap): each run (see CountObserver) with its start address
// and memory accesses, and the register file at every ExecStart and
// IterStart. Attaching one puts the detector on the control plane with
// the tap, which only the interpreter produces; delivering the full
// plane to it panics.
type TapObserver interface {
	Observer
	// Run reports a run before any loop event derived from its last
	// instruction. The pointee and its slices are reused.
	Run(r *TapRun)
	// Regs reports the register file as it stands after a taken
	// backward branch or jump retired, before any ExecStart or
	// IterStart that transfer triggers; no other transfer triggers
	// them. The pointee is reused once the batch ends.
	Regs(regs *[isa.NumRegs]int64)
}

// TapRun is one run on the tap plane: N consecutive instructions from
// dynamic index First, the first of them at address PC. Its only
// branch, jump or return, if any, is its last instruction, so its
// addresses follow from PC and the segment table; calls go to their
// static targets.
type TapRun struct {
	// Segs is the program's segment table (see trace.Segments).
	Segs []trace.Segment
	// PC is the address of the run's first instruction.
	PC isa.Addr
	// First and N are the dynamic index of the run's first instruction
	// and the run's length.
	First, N uint64
	// Mem holds the run's loads and stores, in stream order.
	Mem []trace.MemAccess
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
// feed it the instruction stream (it implements trace.Consumer,
// trace.BatchConsumer, trace.CtlBatchConsumer and
// trace.TapBatchConsumer; the control plane is the fast one) and call
// Flush at the end.
type Detector struct {
	capacity  int
	flushMask uint64 // 0 = disabled; otherwise flush when instrs reaches the next multiple
	flushAt   uint64
	cls       []*Exec // cls[0] is the deepest/outermost entry
	free      []*Exec // retired executions, reused by push
	obs       []Observer
	runs      []runSink // count and tap observers, in attachment order
	taps      int       // how many of runs are tap observers
	nextID    uint64
	last      uint64
	stats     Stats
	one       [1]trace.Event // Consume's one-event run

	// The tap plane: the batch being consumed, the position in its
	// accesses and snapshots, the address the pending run starts at, and
	// the run handed to tap observers.
	tap  *trace.Tap
	mem  int
	snap int
	pc   isa.Addr
	run  TapRun
}

// runSink is one attached run observer with its delivery path resolved
// at attachment time, so the hot loop never type-asserts. Exactly one of
// count and tap is set.
type runSink struct {
	count CountObserver
	tap   TapObserver
}

// detectors recycles Detectors with their stacks, free lists and
// retired executions (see Release). A fused group of the paper's grids
// takes at most four; the bound covers four such groups at once.
var detectors = freelist.New[Detector]("loopdet.detectors", 16)

// New returns a detector with the given configuration. A bounded
// detector sizes its stack and its free list at Capacity up front, so
// neither grows during a run. New may return a released detector, which
// keeps that storage and the executions it retired.
func New(cfg Config) *Detector {
	d := detectors.Get()
	d.Reset(cfg)
	return d
}

// Reset returns the detector to the state New(cfg) gives, with no
// observers attached, keeping its storage: the executions still on the
// stack join the free list.
func (d *Detector) Reset(cfg Config) {
	d.free = append(d.free, d.cls...)
	clear(d.cls)
	clear(d.obs)
	clear(d.runs)
	*d = Detector{capacity: cfg.Capacity, cls: d.cls[:0], free: d.free, obs: d.obs[:0], runs: d.runs[:0]}
	if cfg.Capacity > 0 {
		if cap(d.cls) < cfg.Capacity {
			d.cls = make([]*Exec, 0, cfg.Capacity)
		}
		if cap(d.free) < cfg.Capacity {
			d.free = append(make([]*Exec, 0, cfg.Capacity), d.free...)
		}
	}
	if cfg.FlushInterval > 0 {
		d.flushMask = cfg.FlushInterval
		d.flushAt = cfg.FlushInterval
	}
}

// Release hands the detector back for a later New to reuse. It does not
// release its observers, which belong to whoever attached them. Neither
// the detector nor an Exec it handed out may be used afterwards.
func (d *Detector) Release() { detectors.Put(d) }

// AddObserver attaches an observer; observers are invoked in attachment
// order. Observers that implement TapObserver receive tap runs, and
// otherwise observers that implement CountObserver receive run counts.
func (d *Detector) AddObserver(o Observer) {
	d.obs = append(d.obs, o)
	if t, ok := o.(TapObserver); ok {
		d.runs = append(d.runs, runSink{tap: t})
		d.taps++
	} else if c, ok := o.(CountObserver); ok {
		d.runs = append(d.runs, runSink{count: c})
	}
}

// Init implements trace.Pass; a fresh detector needs no setup.
func (d *Detector) Init() {}

// Finalize implements trace.Pass by flushing the CLS, so a detector (with
// its observers) is directly schedulable as one pass of a fused
// multi-pass traversal. One detector per CLS capacity is what lets
// CLS-capacity ablations share one instruction stream; every observer
// of one capacity can share its detector, because observers never
// mutate an Exec and so cannot change what the others see.
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

// Consume processes one retired instruction (trace.Consumer) as a
// one-event batch.
func (d *Detector) Consume(ev *trace.Event) {
	d.one[0] = *ev
	d.ConsumeBatch(d.one[:])
}

// ConsumeBatch processes a batch of retired instructions
// (trace.BatchConsumer): count observers learn the batch in runs that
// end at each control transfer (the only kind that can produce loop
// events), then the loop logic for that transfer runs. Most
// instructions are neither, so the inner loop touches no interfaces.
// The full plane carries no data tap, so with tap observers attached
// it panics rather than compute without it.
func (d *Detector) ConsumeBatch(evs []trace.Event) {
	if d.taps != 0 {
		panic("loopdet: full-plane delivery to a detector with tap observers; only the interpreter's control plane carries the data tap")
	}
	start := 0
	for i := range evs {
		ev := &evs[i]
		if !trace.IsTransfer(ev.Instr.Kind) {
			continue
		}
		d.retire(evs[start].Index, uint64(i+1-start))
		start = i + 1
		d.transfer(ev.Instr, ev.PC, ev.Taken, ev.Index)
	}
	if start < len(evs) {
		d.retire(evs[start].Index, uint64(len(evs)-start))
	}
}

// NeedPlanes implements trace.PlaneDeclarer: the CLS rules read only the
// transfer events and count observers only the instruction counts, so
// the detector is control-only unless a TapObserver, which reads the
// data tap, is attached.
func (d *Detector) NeedPlanes() trace.Planes {
	if d.taps != 0 {
		return trace.PlaneCtl | trace.PlaneTap
	}
	return trace.PlaneCtl
}

// ConsumeCtlBatch processes a control-plane batch
// (trace.CtlBatchConsumer): the batch's instructions are reported as
// counted runs ending at each transfer, so the detector touches only the
// transfer events and the straight-line code between them costs one
// Retired call per count observer.
func (d *Detector) ConsumeCtlBatch(evs []trace.CtlEvent, first, n uint64) {
	if d.taps != 0 {
		panic("loopdet: control-plane delivery without the data tap to a detector with tap observers")
	}
	d.consumeCtl(evs, first, n)
}

// ConsumeTapBatch processes a control-plane batch with its data tap
// (trace.TapBatchConsumer): as ConsumeCtlBatch, and besides each run
// goes to the tap observers with its start address and accesses, and
// each snapshot of the register file goes to them before the loop rules
// for its transfer run. Without tap observers the tap is ignored.
func (d *Detector) ConsumeTapBatch(evs []trace.CtlEvent, first, n uint64, tap *trace.Tap) {
	if d.taps == 0 {
		d.consumeCtl(evs, first, n)
		return
	}
	d.tap, d.mem, d.snap, d.pc = tap, 0, 0, tap.PC
	d.consumeCtl(evs, first, n)
	d.tap = nil
}

// consumeCtl is the control-plane walk, with the batch's tap in d.tap
// when tap observers are attached.
func (d *Detector) consumeCtl(evs []trace.CtlEvent, first, n uint64) {
	next := first
	for i := range evs {
		ev := &evs[i]
		d.retire(next, ev.Index+1-next)
		next = ev.Index + 1
		if d.tap == nil {
			d.transfer(ev.Instr, ev.PC, ev.Taken, ev.Index)
			continue
		}
		if trace.TakesSnapshot(ev) {
			d.regs(ev.Index)
		}
		d.transfer(ev.Instr, ev.PC, ev.Taken, ev.Index)
		// The next run starts where the transfer went.
		if ev.Taken {
			d.pc = ev.Target
		} else {
			d.pc = ev.PC + 1
		}
	}
	if end := first + n; next < end {
		d.retire(next, end-next)
	}
}

// regs hands the tap's next register snapshot, that of the transfer at
// dynamic index idx, to the tap observers.
func (d *Detector) regs(idx uint64) {
	if d.snap == len(d.tap.Regs) || d.tap.Regs[d.snap].Index != idx {
		panic(fmt.Sprintf("loopdet: the data tap has no register snapshot for the transfer at %d", idx))
	}
	regs := &d.tap.Regs[d.snap].Regs
	d.snap++
	for i := range d.runs {
		if t := d.runs[i].tap; t != nil {
			t.Regs(regs)
		}
	}
}

// transfer applies the loop rules for one control-transfer instruction
// (a no-op for any other kind). Every consume path funnels through it so
// the planes cannot drift apart.
func (d *Detector) transfer(in *isa.Instr, pc isa.Addr, taken bool, idx uint64) {
	switch in.Kind {
	case isa.KindBranch:
		if in.Target <= pc {
			d.backward(pc, in.Target, taken, idx)
		} else if taken {
			d.exitTransfer(pc, in.Target, idx)
		}
	case isa.KindJump:
		if in.Target <= pc {
			d.backward(pc, in.Target, true, idx)
		} else {
			d.exitTransfer(pc, in.Target, idx)
		}
	case isa.KindRet:
		d.ret(pc, idx)
	}
}

// retire accounts a run of n (> 0) retired instructions starting at
// dynamic index first, cutting it at every periodic-flush boundary it
// crosses.
func (d *Detector) retire(first, n uint64) {
	for d.flushMask != 0 && d.stats.Instrs+n >= d.flushAt {
		k := d.flushAt - d.stats.Instrs
		d.emit(k, first+k-1)
		if d.tap != nil {
			// The rest of the run starts k instructions on, with no
			// transfer in between.
			d.pc = trace.Advance(d.tap.Segs, d.pc, k)
		}
		first, n = first+k, n-k
		d.flushAt += d.flushMask
		d.Flush()
		if n == 0 {
			return
		}
	}
	d.emit(n, first+n-1)
}

// emit counts a run of n retired instructions ending at dynamic index
// last and reports it to the run observers, in attachment order.
func (d *Detector) emit(n, last uint64) {
	d.stats.Instrs += n
	d.last = last
	if d.tap != nil {
		mem, j := d.tap.Mem, d.mem
		for j < len(mem) && mem[j].Index <= last {
			j++
		}
		d.run = TapRun{Segs: d.tap.Segs, PC: d.pc, First: last + 1 - n, N: n, Mem: mem[d.mem:j]}
		d.mem = j
	}
	for i := range d.runs {
		if s := &d.runs[i]; s.count != nil {
			s.count.Retired(n, last)
		} else {
			s.tap.Run(&d.run)
		}
	}
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
