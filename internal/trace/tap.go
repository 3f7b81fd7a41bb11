package trace

import "dynloop/internal/isa"

// The data tap. The §4 data statistics need more than the control
// plane, but far less than one full Event per instruction: the addresses
// and registers of straight-line code are static, so besides the branch
// outcomes the control plane already carries, the only dynamic facts
// are each memory access and the register file where a loop iteration
// starts — and an iteration starts only at a taken backward branch or
// jump (§2.1). The tap carries exactly those facts beside a control-plane
// batch, plus the program's static segment table, from which a consumer
// recovers the addresses and register use of any stretch of the stream.

// MemAccess is one load or store on the tap.
type MemAccess struct {
	// Index is the dynamic index of the load or store.
	Index uint64
	// Addr is the effective address.
	Addr uint64
	// Val is the value loaded or stored.
	Val int64
	// Store is set for a store and clear for a load.
	Store bool
}

// RegSnapshot is the register file as it stands after a taken backward
// branch or jump retired (see TakesSnapshot).
type RegSnapshot struct {
	// Index is the dynamic index of the transfer.
	Index uint64
	// Regs holds the register values.
	Regs [isa.NumRegs]int64
}

// Tap is the data tap of one control-plane batch (see TapBatchConsumer).
// Its buffers have fixed capacities, and the producer ends a batch early
// when either fills.
type Tap struct {
	// Segs is the static segment table of the program the stream runs,
	// one entry per address (see Segments). It is the same for every
	// batch of a traversal and is never modified.
	Segs []Segment
	// PC is the address of the batch's first instruction.
	PC isa.Addr
	// Mem holds the batch's loads and stores in stream order.
	Mem []MemAccess
	// Regs holds one snapshot per transfer of the batch for which
	// TakesSnapshot holds, in stream order.
	Regs []RegSnapshot
}

// TakesSnapshot reports whether the tap records the register file after
// transfer ev: a taken backward branch or jump, the only transfers that
// can start a loop execution or iteration.
func TakesSnapshot(ev *CtlEvent) bool {
	return ev.Taken && ev.Instr.Kind != isa.KindRet && ev.Instr.Target <= ev.PC
}

// Segment is the static summary of the straight-line code from one
// address up to the next control instruction — a branch, jump, call,
// return or halt — or up to the end of the program when none follows.
// Calls end segments because they leave the straight line; they do not
// end loop-detector runs, so a run may cross several segments, following
// each call to its target.
type Segment struct {
	// Skip is the number of instructions from this address up to, not
	// including, the control instruction that ends the segment; when the
	// program ends first, it is the number up to the end.
	Skip uint32
	// Target is the static target of that control instruction.
	Target isa.Addr
	// End is its kind; KindNop when the program ends first.
	End isa.Kind
	// Read holds the registers read before being written from this
	// address through the control instruction, and Touch the registers
	// read or written there (bit r for register r).
	Read, Touch uint32
	// InstrRead and InstrWrite are the registers this address's
	// instruction alone reads and writes.
	InstrRead, InstrWrite uint32
}

// isCtl reports whether instructions of kind k end a segment.
func isCtl(k isa.Kind) bool {
	switch k {
	case isa.KindBranch, isa.KindJump, isa.KindCall, isa.KindRet, isa.KindHalt:
		return true
	}
	return false
}

// Segments builds the segment table of code, one entry per address, in
// one backward pass.
func Segments(code []isa.Instr) []Segment {
	segs := make([]Segment, len(code))
	for pc := len(code) - 1; pc >= 0; pc-- {
		in := &code[pc]
		r := in.ReadMask()
		var w uint32
		if rd, ok := in.WritesReg(); ok {
			w = 1 << (rd % isa.NumRegs)
		}
		s := Segment{Read: r, Touch: r | w, InstrRead: r, InstrWrite: w}
		switch {
		case isCtl(in.Kind):
			s.Target, s.End = in.Target, in.Kind
		case pc == len(code)-1:
			s.Skip, s.End = 1, isa.KindNop // the program ends first
		default:
			nx := &segs[pc+1]
			s.Skip, s.Target, s.End = nx.Skip+1, nx.Target, nx.End
			s.Read |= nx.Read &^ (r | w)
			s.Touch |= nx.Touch
		}
		segs[pc] = s
	}
	return segs
}

// Advance returns the address of the instruction k instructions after
// pc on a stretch of the stream with no branch, jump, return or halt
// among those k: it walks segs, following each call to its target.
func Advance(segs []Segment, pc isa.Addr, k uint64) isa.Addr {
	for {
		s := &segs[pc]
		if k <= uint64(s.Skip) {
			return pc + isa.Addr(k)
		}
		k -= uint64(s.Skip) + 1
		pc = s.Target
	}
}
