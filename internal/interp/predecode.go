package interp

// The predecode stage. Predecode translates the program once into a
// flat array of micro-ops: Kind×Op×Cond collapsed into one dense opcode
// byte, operands widened to direct indices, shift counts pre-masked,
// and the static instruction pointer(s) a transfer event needs resolved
// up front. The control-plane loop (runCtl) then drives a single dense
// switch over that opcode instead of the two-level Kind/Op switch of the
// reference interpreter.
//
// On top of the per-instruction translation, predecode performs
// peephole superinstruction fusion for the dominant idioms of the
// builder's programs:
//
//	addi + br.cc            (compare-branch back edge)
//	st   + br.cc            (loop-latch spill + back edge)
//	ld   + add/addi         (counter reload, reduction)
//	ld   + st               (copy through a register)
//	movi + st               (constant store)
//	st   + st               (adjacent spills)
//	add/addi + add/addi     (straight-line work chains)
//
// A fused micro-op executes both constituents in one dispatch but still
// retires them as two instructions, with the transfer event, tap
// accesses and machine state the reference interpreter produces for the
// pair.
//
// Fusion safety: the second constituent of a pair must not be reachable
// except by falling out of the first. Predecode therefore marks every
// control-flow "leader" — the entry point, every branch/jump/call
// target, and every return address (the instruction after a call) — and
// never fuses across one. Pairs are chosen greedily left to right and
// never overlap, so the instruction after a fused pair keeps its plain
// micro-op; the budget-tail path relies on that to single-step through
// a pair when fewer than two instructions of budget remain. Sequence
// reads (KindSeq) are stateful and calls and returns touch the call
// stack, so none of them ever fuse.

import (
	"dynloop/internal/isa"
	"dynloop/internal/program"
)

// Dense micro-op opcodes. The ALU block mirrors isa.ALUOp order and the
// branch block mirrors isa.Cond order, so predecode translates both
// with one addition. Fused opcodes sit at the top: op >= opFuseFirst
// identifies a two-wide micro-op.
const (
	opNop uint8 = iota
	opHalt
	opAdd
	opAddI
	opSub
	opMul
	opAnd
	opOr
	opXor
	opShl
	opShr
	opMovI
	opMov
	opSlt
	opMod
	opLoad
	opStore
	opSeq
	opJump
	opCall
	opRet
	opBrEQZ // opBrEQZ+cond encodes br.cond
	opBrNEZ
	opBrLTZ
	opBrGEZ
	opBrGTZ
	opBrLEZ
	opBrNever // branch with an unknown condition: never taken, still a run boundary

	opFuseAddIBr   // addi rd, rs1, imm      ; br.cond(aux) rs2, @target
	opFuseStBr     // st rs2, imm(rs1)       ; br.cond(aux) aux2, @target
	opFuseLoadAddI // ld rd, imm(rs1)        ; addi aux, aux2, imm2
	opFuseLoadAdd  // ld rd, imm(rs1)        ; add aux, aux2, rs2
	opFuseMovISt   // movi rd, imm           ; st rs2, imm2(rs1)
	opFuseAddAdd   // add rd, rs1, rs2       ; add aux, aux2, aux3
	opFuseAddAddI  // add rd, rs1, rs2       ; addi aux, aux2, imm2
	opFuseAddIAdd  // addi rd, rs1, imm      ; add aux, aux2, aux3
	opFuseAddIAddI // addi rd, rs1, imm      ; addi aux, aux2, imm2
	opFuseLoadSt   // ld rd, imm(rs1)        ; st aux3, imm2(aux2)
	opFuseStSt     // st rs2, imm(rs1)       ; st aux3, imm2(aux2)

	opFuseFirst = opFuseAddIBr
)

// uop is one predecoded micro-op. For plain ops the fields mirror the
// isa.Instr they came from (with shift counts pre-masked); for fused
// ops rd/rs1/rs2/imm describe the first constituent and aux/aux2/aux3/
// imm2/target the second, per the opcode comments above (rs2 doubles as
// a second-constituent field when the first doesn't use it). in and in2
// are the static instruction pointers transfer events carry (in2 nil for
// plain ops).
type uop struct {
	op     uint8
	rd     uint8
	rs1    uint8
	rs2    uint8
	aux    uint8
	aux2   uint8
	aux3   uint8
	_      byte
	target uint32
	imm    int64
	imm2   int64
	in     *isa.Instr
	in2    *isa.Instr
}

// predecode translates p into the micro-op array, fusing pairs. It
// never rejects a program: ill-formed targets and runaway PCs remain
// runtime machine checks, exactly as in the reference interpreter.
func predecode(p *program.Program) []uop {
	code := p.Code
	n := len(code)
	ops := make([]uop, n)
	for i := range code {
		predecodeOne(&ops[i], &code[i])
	}
	if n < 2 {
		return ops
	}
	// Leaders: addresses control can enter other than by fallthrough
	// from the previous instruction. Out-of-range targets are skipped —
	// they trap at runtime (ErrPC) before any fusion question arises.
	leader := make([]bool, n)
	if int(p.Entry) < n {
		leader[p.Entry] = true
	}
	for i := range code {
		in := &code[i]
		switch in.Kind {
		case isa.KindBranch, isa.KindJump, isa.KindCall:
			if int(in.Target) < n {
				leader[in.Target] = true
			}
		}
		if in.Kind == isa.KindCall && i+1 < n {
			leader[i+1] = true // return address
		}
	}
	for i := 0; i+1 < n; i++ {
		if leader[i+1] {
			continue
		}
		if fusePair(&ops[i], &code[i], &code[i+1]) {
			i++ // pairs never overlap; ops[i+1] keeps its plain micro-op
		}
	}
	return ops
}

// predecodeOne fills u with the plain micro-op for in.
func predecodeOne(u *uop, in *isa.Instr) {
	*u = uop{rd: uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2),
		imm: in.Imm, target: uint32(in.Target), in: in}
	switch in.Kind {
	case isa.KindALU:
		if in.Op > isa.OpMod {
			// Unknown ALU op: the reference alu() computes 0; a movi of
			// zero reproduces that.
			u.op, u.imm = opMovI, 0
			return
		}
		u.op = opAdd + uint8(in.Op)
		if in.Op == isa.OpShl || in.Op == isa.OpShr {
			u.imm = in.Imm & 63 // shift count resolved at predecode
		}
	case isa.KindLoad:
		u.op = opLoad
	case isa.KindStore:
		u.op = opStore
	case isa.KindBranch:
		if in.Cond > isa.CondLEZ {
			// Cond.Holds is false for unknown conditions, but the event
			// still carries a KindBranch instruction, so downstream
			// segmentation must treat it as a control event.
			u.op = opBrNever
			return
		}
		u.op = opBrEQZ + uint8(in.Cond)
	case isa.KindJump:
		u.op = opJump
	case isa.KindCall:
		u.op = opCall
	case isa.KindRet:
		u.op = opRet
	case isa.KindSeq:
		u.op = opSeq
	case isa.KindHalt:
		u.op = opHalt
	default: // KindNop and unknown kinds retire as plain events
		u.op = opNop
	}
}

// fusePair rewrites u into a fused micro-op when (a, b) matches a
// superinstruction pattern; it reports whether it fused.
func fusePair(u *uop, a, b *isa.Instr) bool {
	aAdd := a.Kind == isa.KindALU && a.Op == isa.OpAdd
	aAddI := a.Kind == isa.KindALU && a.Op == isa.OpAddI
	bAdd := b.Kind == isa.KindALU && b.Op == isa.OpAdd
	bAddI := b.Kind == isa.KindALU && b.Op == isa.OpAddI
	bBr := b.Kind == isa.KindBranch && b.Cond <= isa.CondLEZ
	switch {
	case aAddI && bBr:
		*u = uop{op: opFuseAddIBr, rd: uint8(a.Rd), rs1: uint8(a.Rs1), imm: a.Imm,
			aux: uint8(b.Cond), rs2: uint8(b.Rs1), target: uint32(b.Target),
			in: a, in2: b}
	case a.Kind == isa.KindStore && bBr:
		*u = uop{op: opFuseStBr, rs1: uint8(a.Rs1), rs2: uint8(a.Rs2), imm: a.Imm,
			aux: uint8(b.Cond), aux2: uint8(b.Rs1), target: uint32(b.Target),
			in: a, in2: b}
	case a.Kind == isa.KindLoad && bAddI:
		*u = uop{op: opFuseLoadAddI, rd: uint8(a.Rd), rs1: uint8(a.Rs1), imm: a.Imm,
			aux: uint8(b.Rd), aux2: uint8(b.Rs1), imm2: b.Imm,
			in: a, in2: b}
	case a.Kind == isa.KindLoad && bAdd:
		*u = uop{op: opFuseLoadAdd, rd: uint8(a.Rd), rs1: uint8(a.Rs1), imm: a.Imm,
			aux: uint8(b.Rd), aux2: uint8(b.Rs1), rs2: uint8(b.Rs2),
			in: a, in2: b}
	case a.Kind == isa.KindALU && a.Op == isa.OpMovI && b.Kind == isa.KindStore:
		*u = uop{op: opFuseMovISt, rd: uint8(a.Rd), imm: a.Imm,
			rs1: uint8(b.Rs1), rs2: uint8(b.Rs2), imm2: b.Imm,
			in: a, in2: b}
	case aAdd && bAdd:
		*u = uop{op: opFuseAddAdd, rd: uint8(a.Rd), rs1: uint8(a.Rs1), rs2: uint8(a.Rs2),
			aux: uint8(b.Rd), aux2: uint8(b.Rs1), aux3: uint8(b.Rs2),
			in: a, in2: b}
	case aAdd && bAddI:
		*u = uop{op: opFuseAddAddI, rd: uint8(a.Rd), rs1: uint8(a.Rs1), rs2: uint8(a.Rs2),
			aux: uint8(b.Rd), aux2: uint8(b.Rs1), imm2: b.Imm,
			in: a, in2: b}
	case aAddI && bAdd:
		*u = uop{op: opFuseAddIAdd, rd: uint8(a.Rd), rs1: uint8(a.Rs1), imm: a.Imm,
			aux: uint8(b.Rd), aux2: uint8(b.Rs1), aux3: uint8(b.Rs2),
			in: a, in2: b}
	case aAddI && bAddI:
		*u = uop{op: opFuseAddIAddI, rd: uint8(a.Rd), rs1: uint8(a.Rs1), imm: a.Imm,
			aux: uint8(b.Rd), aux2: uint8(b.Rs1), imm2: b.Imm,
			in: a, in2: b}
	case a.Kind == isa.KindLoad && b.Kind == isa.KindStore:
		*u = uop{op: opFuseLoadSt, rd: uint8(a.Rd), rs1: uint8(a.Rs1), imm: a.Imm,
			aux2: uint8(b.Rs1), aux3: uint8(b.Rs2), imm2: b.Imm,
			in: a, in2: b}
	case a.Kind == isa.KindStore && b.Kind == isa.KindStore:
		*u = uop{op: opFuseStSt, rs1: uint8(a.Rs1), rs2: uint8(a.Rs2), imm: a.Imm,
			aux2: uint8(b.Rs1), aux3: uint8(b.Rs2), imm2: b.Imm,
			in: a, in2: b}
	default:
		return false
	}
	return true
}

// condHolds mirrors isa.Cond.Holds over the predecoded condition byte.
func condHolds(cond uint8, v int64) bool {
	switch cond {
	case uint8(isa.CondEQZ):
		return v == 0
	case uint8(isa.CondNEZ):
		return v != 0
	case uint8(isa.CondLTZ):
		return v < 0
	case uint8(isa.CondGEZ):
		return v >= 0
	case uint8(isa.CondGTZ):
		return v > 0
	case uint8(isa.CondLEZ):
		return v <= 0
	default:
		return false
	}
}
