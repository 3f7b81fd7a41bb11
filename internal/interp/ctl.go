package interp

// The control-plane execution loop. When every attached consumer is
// control-only (trace.PlanesOf(sink) == trace.PlaneCtl), Run dispatches
// here instead of runPre: the same predecoded micro-op semantics, but
// the only stores into the batch are the control-transfer events —
// branches, jumps and returns — that the loop detector and branch
// predictor read. Every other instruction just executes and is counted,
// so straight-line code costs no event stores at all, and a batch
// flushes when its transfer buffer fills, carrying the span of
// instructions it covers (trace.CtlBatchConsumer).
//
// Machine state transitions (registers, memory, call stack, sequence
// reads, PC, retired count, halts, machine errors) are byte-identical
// to runPre; only the event representation narrows. Differential tests
// pin that the emitted transfer events equal the full stream filtered
// to branch/jump/ret, field for field, and that the covered counts add
// up to the full stream's length.

import (
	"fmt"

	"dynloop/internal/isa"
	"dynloop/internal/trace"
)

// deliverCtl flushes the batch's transfer events with the n
// instructions from first that it covers; like deliver it is a plain
// function so the hot loop's locals stay register-allocated.
func deliverCtl(sink trace.CtlBatchConsumer, evs []trace.CtlEvent, first, n uint64) {
	if n > 0 {
		sink.ConsumeCtlBatch(evs, first, n)
	}
}

// execFusedFirst executes only the first constituent of fused micro-op
// u — never a control transfer, so it has no control-plane event —
// taken when fewer than two instructions of budget remain.
func (c *CPU) execFusedFirst(u *uop) {
	regs := &c.regs
	switch u.op {
	case opFuseAddIBr, opFuseAddIAdd, opFuseAddIAddI:
		regs[u.rd] = regs[u.rs1] + u.imm
	case opFuseAddAdd, opFuseAddAddI:
		regs[u.rd] = regs[u.rs1] + regs[u.rs2]
	case opFuseLoadAddI, opFuseLoadAdd, opFuseLoadSt:
		regs[u.rd] = c.mem.Load(uint64(regs[u.rs1] + u.imm))
	case opFuseStBr, opFuseStSt:
		c.mem.Store(uint64(regs[u.rs1]+u.imm), regs[u.rs2])
	default: // opFuseMovISt
		regs[u.rd] = u.imm
	}
}

// runCtl is the control-plane execution loop: runPre with every event
// store elided except at control transfers. The batch flushes as soon
// as its buf fills with transfer events (so a batch always ends at a
// transfer) and at the end of the run, and error paths flush the
// covered instructions before returning. A fused micro-op executes
// whole whenever two instructions of budget remain — it retires at
// most one transfer, and a batch slot is always free at dispatch — and
// otherwise steps its first constituent alone, exactly as runPre does.
func (c *CPU) runCtl(budget uint64, sink trace.CtlBatchConsumer, buf []trace.CtlEvent) (uint64, error) {
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
			deliverCtl(sink, buf[:k], first, retired-first)
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
			c.mem.Store(uint64(regs[u.rs1]+u.imm), regs[u.rs2])
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
			regs[u.rd] = c.mem.Load(uint64(regs[u.rs1] + u.imm))
			regs[u.aux] = regs[u.aux2] + u.imm2
			pc += 2
			retired += 2
			continue
		case opFuseLoadAdd:
			if limit-retired < 2 {
				goto first1
			}
			regs[u.rd] = c.mem.Load(uint64(regs[u.rs1] + u.imm))
			regs[u.aux] = regs[u.aux2] + regs[u.rs2]
			pc += 2
			retired += 2
			continue
		case opFuseMovISt:
			if limit-retired < 2 {
				goto first1
			}
			regs[u.rd] = u.imm
			c.mem.Store(uint64(regs[u.rs1]+u.imm2), regs[u.rs2])
			pc += 2
			retired += 2
			continue
		case opFuseLoadSt:
			if limit-retired < 2 {
				goto first1
			}
			regs[u.rd] = c.mem.Load(uint64(regs[u.rs1] + u.imm))
			c.mem.Store(uint64(regs[u.aux2]+u.imm2), regs[u.aux3])
			pc += 2
			retired += 2
			continue
		case opFuseStSt:
			if limit-retired < 2 {
				goto first1
			}
			c.mem.Store(uint64(regs[u.rs1]+u.imm), regs[u.rs2])
			c.mem.Store(uint64(regs[u.aux2]+u.imm2), regs[u.aux3])
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
			regs[u.rd] = c.mem.Load(uint64(regs[u.rs1] + u.imm))
		case opStore:
			c.mem.Store(uint64(regs[u.rs1]+u.imm), regs[u.rs2])
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
				deliverCtl(sink, buf[:k], first, retired-first)
				c.pc, c.retired = isa.Addr(pc), retired
				return retired - start, fmt.Errorf("%w at pc=%d", ErrCallDepth, isa.Addr(pc))
			}
			c.stack = append(c.stack, isa.Addr(pc+1))
			next = uint64(u.target)
		case opRet:
			if len(c.stack) == 0 {
				deliverCtl(sink, buf[:k], first, retired-first)
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
		c.execFusedFirst(u)
		retired++
		pc++
		continue

	xfer1: // a single-instruction transfer, its event in buf[k]
		retired++
		pc = next
	xfer: // the transfer's event is in buf[k]; pc and retired are advanced
		if k++; k == kmax {
			sink.ConsumeCtlBatch(buf, first, retired-first)
			k, first = 0, retired
		}
	}
	deliverCtl(sink, buf[:k], first, retired-first)
	c.pc, c.retired, c.halted = isa.Addr(pc), retired, halted
	return retired - start, nil
}
