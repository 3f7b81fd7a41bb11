// Package isa defines the instruction set of the trace substrate.
//
// The paper's mechanism observes the retired instruction stream of a
// conventional ISA (DEC Alpha in the paper). Only a small amount of
// structure matters to it: instruction addresses, the classification of
// control transfers into branches, jumps, calls and returns, branch
// outcomes, and — for the data-speculation statistics of §4 — the registers
// and memory locations an instruction reads and writes. This package
// defines a minimal RISC-style ISA carrying exactly that structure.
//
// Addresses are instruction indexes (word addressing): instruction i of a
// program lives at address Addr(i).
package isa

import "fmt"

// Addr is an instruction address. Programs are word-addressed: the i-th
// instruction of a program has address Addr(i).
type Addr uint32

// Reg names one of the NumRegs general-purpose integer registers.
type Reg uint8

// NumRegs is the size of the architectural register file.
const NumRegs = 32

// Kind classifies an instruction. The loop detector only distinguishes
// KindBranch, KindJump, KindCall and KindRet; everything else is opaque
// "work".
type Kind uint8

const (
	// KindALU is a register-to-register arithmetic/logic operation.
	KindALU Kind = iota
	// KindLoad reads memory at Rs1+Imm into Rd.
	KindLoad
	// KindStore writes Rs2 to memory at Rs1+Imm.
	KindStore
	// KindBranch is a conditional branch: if Cond holds for Rs1 the PC
	// moves to Target, otherwise it falls through.
	KindBranch
	// KindJump is an unconditional jump to Target.
	KindJump
	// KindCall transfers control to Target and pushes the return address
	// (the address after the call) onto the call stack. Calls never
	// terminate loop executions (§2.1 of the paper).
	KindCall
	// KindRet pops the call stack and transfers control there.
	KindRet
	// KindSeq reads the next value of input sequence Imm into Rd. It is
	// the substitute for input data (see DESIGN.md): trip counts and data
	// values that in the paper came from the SPEC95 reference inputs come
	// from deterministic seeded sequences here.
	KindSeq
	// KindHalt stops the machine.
	KindHalt
	// KindNop does nothing for one cycle.
	KindNop
)

// String returns the mnemonic of the kind.
func (k Kind) String() string {
	switch k {
	case KindALU:
		return "alu"
	case KindLoad:
		return "ld"
	case KindStore:
		return "st"
	case KindBranch:
		return "br"
	case KindJump:
		return "jmp"
	case KindCall:
		return "call"
	case KindRet:
		return "ret"
	case KindSeq:
		return "seq"
	case KindHalt:
		return "halt"
	case KindNop:
		return "nop"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsControl reports whether instructions of this kind can redirect the PC.
func (k Kind) IsControl() bool {
	switch k {
	case KindBranch, KindJump, KindCall, KindRet:
		return true
	}
	return false
}

// TouchesMem reports whether instructions of this kind access data
// memory (and therefore carry the MemAddr/MemVal event facet). The
// trace codecs and the interpreter's predecoder share this single
// definition so an encoded event always round-trips field-identical.
func (k Kind) TouchesMem() bool {
	return k == KindLoad || k == KindStore
}

// ALUOp selects the operation of a KindALU instruction.
type ALUOp uint8

const (
	// OpAdd computes Rd = Rs1 + Rs2.
	OpAdd ALUOp = iota
	// OpAddI computes Rd = Rs1 + Imm.
	OpAddI
	// OpSub computes Rd = Rs1 - Rs2.
	OpSub
	// OpMul computes Rd = Rs1 * Rs2.
	OpMul
	// OpAnd computes Rd = Rs1 & Rs2.
	OpAnd
	// OpOr computes Rd = Rs1 | Rs2.
	OpOr
	// OpXor computes Rd = Rs1 ^ Rs2.
	OpXor
	// OpShl computes Rd = Rs1 << (Imm & 63).
	OpShl
	// OpShr computes Rd = Rs1 >> (Imm & 63) (arithmetic).
	OpShr
	// OpMovI loads the immediate: Rd = Imm.
	OpMovI
	// OpMov copies a register: Rd = Rs1.
	OpMov
	// OpSlt computes Rd = 1 if Rs1 < Rs2 else 0.
	OpSlt
	// OpMod computes Rd = Rs1 mod Rs2 (0 when Rs2 == 0).
	OpMod
)

// String returns the mnemonic of the ALU operation.
func (o ALUOp) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpAddI:
		return "addi"
	case OpSub:
		return "sub"
	case OpMul:
		return "mul"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpXor:
		return "xor"
	case OpShl:
		return "shl"
	case OpShr:
		return "shr"
	case OpMovI:
		return "movi"
	case OpMov:
		return "mov"
	case OpSlt:
		return "slt"
	case OpMod:
		return "mod"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Cond selects the condition of a KindBranch instruction; the condition is
// evaluated against register Rs1.
type Cond uint8

const (
	// CondEQZ branches when Rs1 == 0.
	CondEQZ Cond = iota
	// CondNEZ branches when Rs1 != 0.
	CondNEZ
	// CondLTZ branches when Rs1 < 0.
	CondLTZ
	// CondGEZ branches when Rs1 >= 0.
	CondGEZ
	// CondGTZ branches when Rs1 > 0.
	CondGTZ
	// CondLEZ branches when Rs1 <= 0.
	CondLEZ
)

// String returns the mnemonic of the condition.
func (c Cond) String() string {
	switch c {
	case CondEQZ:
		return "eqz"
	case CondNEZ:
		return "nez"
	case CondLTZ:
		return "ltz"
	case CondGEZ:
		return "gez"
	case CondGTZ:
		return "gtz"
	case CondLEZ:
		return "lez"
	default:
		return fmt.Sprintf("cond(%d)", uint8(c))
	}
}

// Holds reports whether the condition holds for the value v.
func (c Cond) Holds(v int64) bool {
	switch c {
	case CondEQZ:
		return v == 0
	case CondNEZ:
		return v != 0
	case CondLTZ:
		return v < 0
	case CondGEZ:
		return v >= 0
	case CondGTZ:
		return v > 0
	case CondLEZ:
		return v <= 0
	default:
		return false
	}
}

// Instr is one machine instruction. The zero value is a NOP-like ALU
// instruction; use the constructor helpers for readable code.
type Instr struct {
	Kind   Kind
	Op     ALUOp // KindALU only
	Cond   Cond  // KindBranch only
	Rd     Reg   // destination (ALU, Load, Seq)
	Rs1    Reg   // first source (ALU, Load, Store base, Branch condition)
	Rs2    Reg   // second source (ALU, Store value)
	Imm    int64 // immediate (ALU, Load/Store offset, Seq id)
	Target Addr  // control-transfer target (Branch, Jump, Call)
}

// ALU builds a three-register ALU instruction.
func ALU(op ALUOp, rd, rs1, rs2 Reg) Instr {
	return Instr{Kind: KindALU, Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}
}

// AddI builds Rd = Rs1 + Imm.
func AddI(rd, rs1 Reg, imm int64) Instr {
	return Instr{Kind: KindALU, Op: OpAddI, Rd: rd, Rs1: rs1, Imm: imm}
}

// MovI builds Rd = Imm.
func MovI(rd Reg, imm int64) Instr {
	return Instr{Kind: KindALU, Op: OpMovI, Rd: rd, Imm: imm}
}

// Mov builds Rd = Rs1.
func Mov(rd, rs1 Reg) Instr {
	return Instr{Kind: KindALU, Op: OpMov, Rd: rd, Rs1: rs1}
}

// Load builds Rd = mem[Rs1 + Imm].
func Load(rd, rs1 Reg, off int64) Instr {
	return Instr{Kind: KindLoad, Rd: rd, Rs1: rs1, Imm: off}
}

// Store builds mem[Rs1 + Imm] = Rs2.
func Store(rs1 Reg, off int64, rs2 Reg) Instr {
	return Instr{Kind: KindStore, Rs1: rs1, Rs2: rs2, Imm: off}
}

// Branch builds a conditional branch on Rs1 to target.
func Branch(c Cond, rs1 Reg, target Addr) Instr {
	return Instr{Kind: KindBranch, Cond: c, Rs1: rs1, Target: target}
}

// Jump builds an unconditional jump to target.
func Jump(target Addr) Instr {
	return Instr{Kind: KindJump, Target: target}
}

// Call builds a subroutine call to target.
func Call(target Addr) Instr {
	return Instr{Kind: KindCall, Target: target}
}

// Ret builds a subroutine return.
func Ret() Instr {
	return Instr{Kind: KindRet}
}

// Seq builds Rd = next value of sequence id.
func Seq(rd Reg, id int64) Instr {
	return Instr{Kind: KindSeq, Rd: rd, Imm: id}
}

// Halt builds the halt instruction.
func Halt() Instr {
	return Instr{Kind: KindHalt}
}

// Nop builds a no-op.
func Nop() Instr {
	return Instr{Kind: KindNop}
}

// Reads appends to dst the registers this instruction reads and returns the
// extended slice. It is used by the data-speculation tracker.
func (in *Instr) Reads(dst []Reg) []Reg {
	switch in.Kind {
	case KindALU:
		switch in.Op {
		case OpMovI:
			// no register sources
		case OpAddI, OpMov, OpShl, OpShr:
			dst = append(dst, in.Rs1)
		default:
			dst = append(dst, in.Rs1, in.Rs2)
		}
	case KindLoad:
		dst = append(dst, in.Rs1)
	case KindStore:
		dst = append(dst, in.Rs1, in.Rs2)
	case KindBranch:
		dst = append(dst, in.Rs1)
	}
	return dst
}

// kindSrcs and aluSrcs select the source operands Reads lists, by kind
// and, for KindALU, by operation: the low half of an entry is all ones
// when Rs1 is read, the high half when Rs2 is. Full-byte tables need no
// bounds check.
var kindSrcs = [256]uint64{KindLoad: rs1Read, KindStore: rs1Read | rs2Read, KindBranch: rs1Read}

var aluSrcs = func() (t [256]uint64) {
	for op := range t {
		t[op] = rs1Read | rs2Read
	}
	t[OpMovI] = 0
	t[OpAddI], t[OpMov], t[OpShl], t[OpShr] = rs1Read, rs1Read, rs1Read, rs1Read
	return t
}()

const (
	rs1Read = 1<<32 - 1
	rs2Read = rs1Read << 32
)

// regBits[r] is register r's bit in a register mask.
var regBits = func() (t [256]uint32) {
	for r := range t {
		t[r] = 1 << (r % NumRegs)
	}
	return t
}()

// ReadMask returns the registers Reads lists as a bit set, bit r for
// register r, without building a slice. Registers are taken mod NumRegs,
// which valid programs never exceed.
func (in *Instr) ReadMask() uint32 {
	// Both lookups, then a select the compiler makes branch-free.
	src, alu := kindSrcs[in.Kind], aluSrcs[in.Op]
	if in.Kind == KindALU {
		src = alu
	}
	return regBits[in.Rs1]&uint32(src) | regBits[in.Rs2]&uint32(src>>32)
}

// WritesReg reports whether the instruction writes a register, and which.
func (in *Instr) WritesReg() (Reg, bool) {
	switch in.Kind {
	case KindALU, KindLoad, KindSeq:
		return in.Rd, true
	}
	return 0, false
}

// String disassembles the instruction.
func (in Instr) String() string {
	switch in.Kind {
	case KindALU:
		switch in.Op {
		case OpMovI:
			return fmt.Sprintf("movi r%d, %d", in.Rd, in.Imm)
		case OpAddI:
			return fmt.Sprintf("addi r%d, r%d, %d", in.Rd, in.Rs1, in.Imm)
		case OpMov:
			return fmt.Sprintf("mov r%d, r%d", in.Rd, in.Rs1)
		case OpShl, OpShr:
			return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
		default:
			return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
		}
	case KindLoad:
		return fmt.Sprintf("ld r%d, %d(r%d)", in.Rd, in.Imm, in.Rs1)
	case KindStore:
		return fmt.Sprintf("st r%d, %d(r%d)", in.Rs2, in.Imm, in.Rs1)
	case KindBranch:
		return fmt.Sprintf("br.%s r%d, @%d", in.Cond, in.Rs1, in.Target)
	case KindJump:
		return fmt.Sprintf("jmp @%d", in.Target)
	case KindCall:
		return fmt.Sprintf("call @%d", in.Target)
	case KindRet:
		return "ret"
	case KindSeq:
		return fmt.Sprintf("seq r%d, #%d", in.Rd, in.Imm)
	case KindHalt:
		return "halt"
	case KindNop:
		return "nop"
	default:
		return fmt.Sprintf("?%d", in.Kind)
	}
}
