package interp

// The control-plane execution loop, the interpreter's fast loop. Run
// dispatches here whenever the sink reads only the control plane
// (trace.PlanesOf(sink) == trace.PlaneCtl), the control plane with the
// data tap, or when there is no sink. It executes the predecoded
// micro-ops (see predecode.go), and the only stores into the batch are
// the control-transfer events — branches, jumps and returns — that the
// loop detector and branch predictor read. Every other instruction just
// executes and is counted, so straight-line code costs no event stores
// at all, and a batch flushes when its transfer buffer fills, carrying
// the span of instructions it covers (trace.CtlBatchConsumer).
//
// Machine state transitions (registers, memory, call stack, sequence
// reads, PC, retired count, halts, machine errors) are byte-identical
// to the reference interpreter's (runRef). Differential tests pin that
// the emitted transfer events equal the reference stream filtered to
// branch/jump/ret, field for field, that the covered counts add up to
// the reference stream's length, and that registers and memory end in
// the same state.
//
// With a data tap (trace.PlaneTap) the same loop also appends each load
// and store, and the register file after each taken backward branch or
// jump, to the tap's fixed-capacity buffers, and ends a batch early when
// either fills. Only the load, store and transfer paths look at the tap;
// every other instruction runs exactly as without it.

import (
	"fmt"

	"dynloop/internal/isa"
	"dynloop/internal/trace"
)

// deliverCtl flushes the batch's transfer events with the n
// instructions from first that it covers. It is a plain function, not a
// closure, so the hot loop's locals stay register-allocated.
func deliverCtl(sink trace.CtlBatchConsumer, evs []trace.CtlEvent, first, n uint64) {
	if n > 0 {
		sink.ConsumeCtlBatch(evs, first, n)
	}
}

// tapState is the data tap of one runCtl call: the tap a batch fills
// and the sink it goes to with the batch.
type tapState struct {
	sink trace.TapBatchConsumer
	tap  trace.Tap
}

// access appends a load (store false) or store to the tap.
func (t *tapState) access(idx, addr uint64, val int64, store bool) {
	t.tap.Mem = append(t.tap.Mem, trace.MemAccess{Index: idx, Addr: addr, Val: val, Store: store})
}

// memFull reports whether the next micro-op might not find room for its
// accesses: a fused pair makes two.
func (t *tapState) memFull() bool { return len(t.tap.Mem) > cap(t.tap.Mem)-2 }

// transfer records the register file after transfer ev when the tap
// snapshots it, and reports whether a buffer is full.
func (t *tapState) transfer(ev *trace.CtlEvent, regs *[isa.NumRegs]int64) bool {
	if trace.TakesSnapshot(ev) {
		n := len(t.tap.Regs)
		t.tap.Regs = t.tap.Regs[:n+1]
		s := &t.tap.Regs[n]
		s.Index, s.Regs = ev.Index, *regs
	}
	return len(t.tap.Regs) == cap(t.tap.Regs) || t.memFull()
}

// deliver flushes the batch with its tap and starts the next batch's
// tap at address next.
func (t *tapState) deliver(evs []trace.CtlEvent, first, n, next uint64) {
	if n > 0 {
		t.sink.ConsumeTapBatch(evs, first, n, &t.tap)
	}
	t.tap.PC = isa.Addr(next)
	t.tap.Mem, t.tap.Regs = t.tap.Mem[:0], t.tap.Regs[:0]
}

// flushCtl delivers the pending batch at the end of a run, with its tap
// when the run has one.
func flushCtl(sink trace.CtlBatchConsumer, tap *tapState, evs []trace.CtlEvent, first, n, next uint64) {
	if tap != nil {
		tap.deliver(evs, first, n, next)
		return
	}
	deliverCtl(sink, evs, first, n)
}

// execFusedFirst executes only the first constituent of fused micro-op
// u, the instruction at dynamic index idx — never a control transfer,
// so it has no control-plane event — taken when fewer than two
// instructions of budget remain. A load or store goes onto tap when
// there is one.
func (c *CPU) execFusedFirst(u *uop, tap *tapState, idx uint64) {
	regs := &c.regs
	switch u.op {
	case opFuseAddIBr, opFuseAddIAdd, opFuseAddIAddI:
		regs[u.rd] = regs[u.rs1] + u.imm
	case opFuseAddAdd, opFuseAddAddI:
		regs[u.rd] = regs[u.rs1] + regs[u.rs2]
	case opFuseLoadAddI, opFuseLoadAdd, opFuseLoadSt:
		a := uint64(regs[u.rs1] + u.imm)
		v := c.mem.Load(a)
		regs[u.rd] = v
		if tap != nil {
			tap.access(idx, a, v, false)
		}
	case opFuseStBr, opFuseStSt:
		a, v := uint64(regs[u.rs1]+u.imm), regs[u.rs2]
		c.mem.Store(a, v)
		if tap != nil {
			tap.access(idx, a, v, true)
		}
	default: // opFuseMovISt
		regs[u.rd] = u.imm
	}
}

// runCtl is the control-plane execution loop: one dense switch per
// dispatch over the predecoded micro-ops, storing an event only at
// control transfers. The batch flushes as soon
// as its buf fills with transfer events (so such a batch ends at a
// transfer), when tap is non-nil and one of its buffers fills, and at
// the end of the run, and error paths flush the covered instructions
// before returning. A fused micro-op executes whole whenever two
// instructions of budget remain — it retires at most one transfer, and
// a batch slot is always free at dispatch — and otherwise steps its
// first constituent alone; the plain micro-op kept at pc+1 then
// executes the second on the next dispatch.
func (c *CPU) runCtl(budget uint64, sink trace.CtlBatchConsumer, buf []trace.CtlEvent, tap *tapState) (uint64, error) {
	ops := c.ops
	pc := uint64(c.pc)
	retired := c.retired
	start := retired
	regs := &c.regs
	limit := retired + budget
	if budget == 0 || limit < retired {
		limit = ^uint64(0)
	}
	kmax := len(buf)
	k := 0
	// first is the dynamic index of the first instruction the pending
	// batch covers.
	first := retired
	halted := c.halted
	for !halted && retired < limit {
		if pc >= uint64(len(ops)) {
			flushCtl(sink, tap, buf[:k], first, retired-first, pc)
			c.pc, c.retired = isa.Addr(pc), retired
			return retired - start, fmt.Errorf("%w: pc=%d len=%d", ErrPC, isa.Addr(pc), len(ops))
		}
		u := &ops[pc]
		next := pc + 1
		switch u.op {
		case opFuseAddIAddI:
			if limit-retired < 2 {
				goto first1
			}
			regs[u.rd] = regs[u.rs1] + u.imm
			regs[u.aux] = regs[u.aux2] + u.imm2
			pc += 2
			retired += 2
			continue
		case opFuseAddIAdd:
			if limit-retired < 2 {
				goto first1
			}
			regs[u.rd] = regs[u.rs1] + u.imm
			regs[u.aux] = regs[u.aux2] + regs[u.aux3]
			pc += 2
			retired += 2
			continue
		case opFuseAddAddI:
			if limit-retired < 2 {
				goto first1
			}
			regs[u.rd] = regs[u.rs1] + regs[u.rs2]
			regs[u.aux] = regs[u.aux2] + u.imm2
			pc += 2
			retired += 2
			continue
		case opFuseAddAdd:
			if limit-retired < 2 {
				goto first1
			}
			regs[u.rd] = regs[u.rs1] + regs[u.rs2]
			regs[u.aux] = regs[u.aux2] + regs[u.aux3]
			pc += 2
			retired += 2
			continue
		case opFuseAddIBr:
			if limit-retired < 2 {
				goto first1
			}
			regs[u.rd] = regs[u.rs1] + u.imm
			if condHolds(u.aux, regs[u.rs2]) {
				buf[k] = trace.CtlEvent{Index: retired + 1, PC: isa.Addr(pc + 1), Instr: u.in2,
					Taken: true, Target: isa.Addr(u.target)}
				pc = uint64(u.target)
			} else {
				buf[k] = trace.CtlEvent{Index: retired + 1, PC: isa.Addr(pc + 1), Instr: u.in2}
				pc += 2
			}
			retired += 2
			goto xfer
		case opFuseStBr:
			if limit-retired < 2 {
				goto first1
			}
			a, v := uint64(regs[u.rs1]+u.imm), regs[u.rs2]
			c.mem.Store(a, v)
			if tap != nil {
				tap.access(retired, a, v, true)
			}
			if condHolds(u.aux, regs[u.aux2]) {
				buf[k] = trace.CtlEvent{Index: retired + 1, PC: isa.Addr(pc + 1), Instr: u.in2,
					Taken: true, Target: isa.Addr(u.target)}
				pc = uint64(u.target)
			} else {
				buf[k] = trace.CtlEvent{Index: retired + 1, PC: isa.Addr(pc + 1), Instr: u.in2}
				pc += 2
			}
			retired += 2
			goto xfer
		case opFuseLoadAddI:
			if limit-retired < 2 {
				goto first1
			}
			a := uint64(regs[u.rs1] + u.imm)
			v := c.mem.Load(a)
			regs[u.rd] = v
			regs[u.aux] = regs[u.aux2] + u.imm2
			if tap != nil {
				tap.access(retired, a, v, false)
				pc += 2
				retired += 2
				goto tapped
			}
			pc += 2
			retired += 2
			continue
		case opFuseLoadAdd:
			if limit-retired < 2 {
				goto first1
			}
			a := uint64(regs[u.rs1] + u.imm)
			v := c.mem.Load(a)
			regs[u.rd] = v
			regs[u.aux] = regs[u.aux2] + regs[u.rs2]
			if tap != nil {
				tap.access(retired, a, v, false)
				pc += 2
				retired += 2
				goto tapped
			}
			pc += 2
			retired += 2
			continue
		case opFuseMovISt:
			if limit-retired < 2 {
				goto first1
			}
			regs[u.rd] = u.imm
			a, v := uint64(regs[u.rs1]+u.imm2), regs[u.rs2]
			c.mem.Store(a, v)
			if tap != nil {
				tap.access(retired+1, a, v, true)
				pc += 2
				retired += 2
				goto tapped
			}
			pc += 2
			retired += 2
			continue
		case opFuseLoadSt:
			if limit-retired < 2 {
				goto first1
			}
			a := uint64(regs[u.rs1] + u.imm)
			v := c.mem.Load(a)
			regs[u.rd] = v
			a2, v2 := uint64(regs[u.aux2]+u.imm2), regs[u.aux3]
			c.mem.Store(a2, v2)
			if tap != nil {
				tap.access(retired, a, v, false)
				tap.access(retired+1, a2, v2, true)
				pc += 2
				retired += 2
				goto tapped
			}
			pc += 2
			retired += 2
			continue
		case opFuseStSt:
			if limit-retired < 2 {
				goto first1
			}
			a, v := uint64(regs[u.rs1]+u.imm), regs[u.rs2]
			c.mem.Store(a, v)
			a2, v2 := uint64(regs[u.aux2]+u.imm2), regs[u.aux3]
			c.mem.Store(a2, v2)
			if tap != nil {
				tap.access(retired, a, v, true)
				tap.access(retired+1, a2, v2, true)
				pc += 2
				retired += 2
				goto tapped
			}
			pc += 2
			retired += 2
			continue
		case opAddI:
			regs[u.rd] = regs[u.rs1] + u.imm
		case opAdd:
			regs[u.rd] = regs[u.rs1] + regs[u.rs2]
		case opBrEQZ:
			if regs[u.rs1] == 0 {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in,
					Taken: true, Target: isa.Addr(u.target)}
				next = uint64(u.target)
			} else {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in}
			}
			goto xfer1
		case opBrNEZ:
			if regs[u.rs1] != 0 {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in,
					Taken: true, Target: isa.Addr(u.target)}
				next = uint64(u.target)
			} else {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in}
			}
			goto xfer1
		case opBrLTZ:
			if regs[u.rs1] < 0 {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in,
					Taken: true, Target: isa.Addr(u.target)}
				next = uint64(u.target)
			} else {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in}
			}
			goto xfer1
		case opBrGEZ:
			if regs[u.rs1] >= 0 {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in,
					Taken: true, Target: isa.Addr(u.target)}
				next = uint64(u.target)
			} else {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in}
			}
			goto xfer1
		case opBrGTZ:
			if regs[u.rs1] > 0 {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in,
					Taken: true, Target: isa.Addr(u.target)}
				next = uint64(u.target)
			} else {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in}
			}
			goto xfer1
		case opBrLEZ:
			if regs[u.rs1] <= 0 {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in,
					Taken: true, Target: isa.Addr(u.target)}
				next = uint64(u.target)
			} else {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in}
			}
			goto xfer1
		case opLoad:
			a := uint64(regs[u.rs1] + u.imm)
			v := c.mem.Load(a)
			regs[u.rd] = v
			if tap != nil {
				tap.access(retired, a, v, false)
				retired++
				pc = next
				goto tapped
			}
		case opStore:
			a, v := uint64(regs[u.rs1]+u.imm), regs[u.rs2]
			c.mem.Store(a, v)
			if tap != nil {
				tap.access(retired, a, v, true)
				retired++
				pc = next
				goto tapped
			}
		case opMovI:
			regs[u.rd] = u.imm
		case opMov:
			regs[u.rd] = regs[u.rs1]
		case opSub:
			regs[u.rd] = regs[u.rs1] - regs[u.rs2]
		case opMul:
			regs[u.rd] = regs[u.rs1] * regs[u.rs2]
		case opAnd:
			regs[u.rd] = regs[u.rs1] & regs[u.rs2]
		case opOr:
			regs[u.rd] = regs[u.rs1] | regs[u.rs2]
		case opXor:
			regs[u.rd] = regs[u.rs1] ^ regs[u.rs2]
		case opShl:
			regs[u.rd] = regs[u.rs1] << uint64(u.imm)
		case opShr:
			regs[u.rd] = regs[u.rs1] >> uint64(u.imm)
		case opSlt:
			var v int64
			if regs[u.rs1] < regs[u.rs2] {
				v = 1
			}
			regs[u.rd] = v
		case opMod:
			var v int64
			if b := regs[u.rs2]; b != 0 {
				v = regs[u.rs1] % b
			}
			regs[u.rd] = v
		case opSeq:
			var v int64
			if s, ok := c.seqs[u.imm]; ok {
				v = s.Next()
			}
			regs[u.rd] = v
		case opJump:
			buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in,
				Taken: true, Target: isa.Addr(u.target)}
			next = uint64(u.target)
			goto xfer1
		case opCall:
			if len(c.stack) >= MaxCallDepth {
				flushCtl(sink, tap, buf[:k], first, retired-first, pc)
				c.pc, c.retired = isa.Addr(pc), retired
				return retired - start, fmt.Errorf("%w at pc=%d", ErrCallDepth, isa.Addr(pc))
			}
			c.stack = append(c.stack, isa.Addr(pc+1))
			next = uint64(u.target)
		case opRet:
			if len(c.stack) == 0 {
				flushCtl(sink, tap, buf[:k], first, retired-first, pc)
				c.pc, c.retired = isa.Addr(pc), retired
				return retired - start, fmt.Errorf("%w at pc=%d", ErrRetEmpty, isa.Addr(pc))
			}
			ra := c.stack[len(c.stack)-1]
			c.stack = c.stack[:len(c.stack)-1]
			buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in,
				Taken: true, Target: ra}
			next = uint64(ra)
			goto xfer1
		case opBrNever:
			// Unknown-condition branch: never taken, still a transfer.
			buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in}
			goto xfer1
		case opHalt:
			halted = true
		}
		// default (opNop) and every plain op: no event.
		retired++
		pc = next
		continue

	first1: // fused op stepped as its first constituent only
		c.execFusedFirst(u, tap, retired)
		retired++
		pc++
		if tap != nil {
			goto tapped
		}
		continue

	tapped: // a load or store went onto the tap; pc and retired are advanced
		if tap.memFull() {
			tap.deliver(buf[:k], first, retired-first, pc)
			k, first = 0, retired
		}
		continue

	xfer1: // a single-instruction transfer, its event in buf[k]
		retired++
		pc = next
	xfer: // the transfer's event is in buf[k]; pc and retired are advanced
		if tap != nil {
			full := tap.transfer(&buf[k], regs)
			if k++; k == kmax || full {
				tap.deliver(buf[:k], first, retired-first, pc)
				k, first = 0, retired
			}
			continue
		}
		if k++; k == kmax {
			sink.ConsumeCtlBatch(buf, first, retired-first)
			k, first = 0, retired
		}
	}
	flushCtl(sink, tap, buf[:k], first, retired-first, pc)
	c.pc, c.retired, c.halted = isa.Addr(pc), retired, halted
	return retired - start, nil
}
