// Package interp executes programs of the substrate ISA and delivers
// their retired-instruction stream. It replaces the paper's
// ATOM-instrumented Alpha binaries: the loop detector, tables, speculation
// engine and data-speculation statistics all run as consumers of the
// stream this interpreter produces.
//
// There are two execution loops, and Run picks one by negotiating the
// event plane with its sink (see trace.Planes):
//
//   - runCtl (ctl.go) is the fast loop. It dispatches over a predecoded
//     micro-op array with peephole superinstruction fusion (see
//     predecode.go) and delivers only the control plane: the branches,
//     jumps and returns the loop detector reacts to and the instruction
//     counts between them, plus the data tap when the sink asks for it.
//     Every registered grid runs here, and so does a Run with no sink.
//   - runRef is the reference interpreter: the original two-level
//     Kind/Op switch over isa.Instr, writing one full trace.Event per
//     instruction. It serves the full event plane (trace recording,
//     trace.Recorder, trace.Counter, consumers wrapped in
//     trace.ForceFullPlane) and is the oracle runCtl is tested against.
//
// The micro-op array is built once per program (Predecode) and is
// immutable, so every CPU made from one Code shares it; only machine
// state (registers, memory, call stack, sequences) is per CPU. New
// predecodes for a single CPU.
//
// Events are delivered in batches of DefaultBatchSize (see
// SetBatchSize), so the consumer side costs one interface call per batch
// instead of one per instruction. The buffers come from a process-wide
// free list for the duration of one Run and go back when it returns, so they
// are reused across batches, Run calls and CPUs — the steady-state hot
// path does not allocate, and a fresh CPU per traversal does not
// allocate a fresh batch either.
package interp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dynloop/internal/freelist"
	"dynloop/internal/isa"
	"dynloop/internal/program"
	"dynloop/internal/trace"
)

// Errors reported by Run.
var (
	// ErrNoProgram is returned when the CPU has no program loaded.
	ErrNoProgram = errors.New("interp: no program loaded")
	// ErrCallDepth is returned when the call stack exceeds MaxCallDepth.
	ErrCallDepth = errors.New("interp: call stack overflow")
	// ErrRetEmpty is returned on a return with an empty call stack.
	ErrRetEmpty = errors.New("interp: return with empty call stack")
	// ErrPC is returned when the PC leaves the program.
	ErrPC = errors.New("interp: PC out of range")
)

// MaxCallDepth bounds the call stack; exceeding it is a program bug and
// aborts the run rather than looping forever.
const MaxCallDepth = 4096

// DefaultBatchSize is the event-batch size Run uses unless SetBatchSize
// chose another. 1024 events (~90 KiB) sits at the measured knee of the
// BenchmarkRunBatchSize sweep: the per-batch interface dispatch is
// amortised to noise by ~256, and the buffer stays comfortably inside
// L2 — 4096 (~360 KiB) measured ~10% slower on the reference host.
const DefaultBatchSize = 1024

// CPU is a single-context interpreter. Create one with New, then call Run.
type CPU struct {
	prog *program.Program
	regs [isa.NumRegs]int64
	mem  Memory
	// ops is the predecoded micro-op array (see predecode.go), shared
	// read-only with every other CPU made from the same Code.
	ops []uop
	// code is the Code the CPU was made from, for its static tables.
	code *Code
	// stack holds return addresses.
	stack []isa.Addr
	pc    isa.Addr
	// seqs maps sequence ids to value streams.
	seqs map[int64]Sequence
	// retired counts instructions executed so far across Run calls.
	retired uint64
	halted  bool

	// batchSize is the event-batch size (0 = DefaultBatchSize); the
	// buffers themselves are recycled (see batchBufs).
	batchSize int
}

// Code is a program's predecoded micro-op array. It is immutable once
// built, so any number of CPUs, running concurrently or not, can execute
// from one Code without predecoding the program again.
type Code struct {
	prog *program.Program
	ops  []uop
	// segs is the program's segment table (trace.Segments), which the
	// data tap hands its consumers, and skip the straight-line table
	// control-plane replays walk (see skips); both are built on first
	// use.
	segOnce  sync.Once
	segs     []trace.Segment
	skipOnce sync.Once
	skip     []uint32
}

// segments returns the program's segment table, building it on first
// use; like the micro-ops it is shared by every CPU and replay of the
// Code.
func (k *Code) segments() []trace.Segment {
	k.segOnce.Do(func() { k.segs = trace.Segments(k.prog.Code) })
	return k.segs
}

// Predecode translates p once, with superinstruction fusion.
func Predecode(p *program.Program) *Code {
	return &Code{prog: p, ops: predecode(p)}
}

// NewCPU returns a CPU ready to execute the code from the program's entry
// point, with fresh machine state.
func (k *Code) NewCPU() *CPU {
	return &CPU{prog: k.prog, pc: k.prog.Entry, seqs: make(map[int64]Sequence), ops: k.ops, code: k}
}

// New returns a CPU ready to execute p from its entry point; it
// predecodes p for this CPU alone (Predecode shares the work).
func New(p *program.Program) *CPU { return Predecode(p).NewCPU() }

// BindSeq attaches a value sequence to id; KindSeq instructions with that
// id read from it. Unbound sequences read as zero.
func (c *CPU) BindSeq(id int64, s Sequence) { c.seqs[id] = s }

// Reg returns the current value of register r.
func (c *CPU) Reg(r isa.Reg) int64 { return c.regs[r] }

// SetReg sets register r; useful for test setup.
func (c *CPU) SetReg(r isa.Reg, v int64) { c.regs[r] = v }

// Mem returns the data memory, for test inspection and preloading.
func (c *CPU) Mem() *Memory { return &c.mem }

// Release hands the CPU's data pages back for later CPUs to reuse (see
// Memory.Reset). Call it once the CPU is done: its memory reads as zero
// afterwards.
func (c *CPU) Release() { c.mem.Reset() }

// Retired returns the number of instructions executed so far.
func (c *CPU) Retired() uint64 { return c.retired }

// Halted reports whether the program has executed Halt.
func (c *CPU) Halted() bool { return c.halted }

// PC returns the current program counter.
func (c *CPU) PC() isa.Addr { return c.pc }

// SetBatchSize sets the event-batch size for subsequent Run calls
// (n <= 0 selects DefaultBatchSize). Batch size only affects delivery
// granularity — consumers see the same events in the same order at any
// setting — so results are identical; 1 degenerates to per-instruction
// delivery. On the control plane it bounds the transfer events per
// batch rather than the instructions.
func (c *CPU) SetBatchSize(n int) {
	if n <= 0 {
		n = DefaultBatchSize
	}
	c.batchSize = n
}

// BatchSize returns the effective event-batch size.
func (c *CPU) BatchSize() int {
	if c.batchSize <= 0 {
		return DefaultBatchSize
	}
	return c.batchSize
}

// Run executes up to budget instructions (0 means unlimited), emitting one
// event per retired instruction to sink (which may be nil). It returns the
// number of instructions retired by this call. Execution stops at the
// budget, at a Halt, or on a machine error (bad PC, call stack abuse);
// events buffered at that point are flushed before Run returns, so the
// sink always sees every retired instruction.
//
// Events are delivered in batches of BatchSize; the batch buffer is
// recycled, so consumers must copy what they keep (see the
// trace package comment on batch lifetime).
//
// Run negotiates the event plane with the sink: when the sink accepts
// control-plane batches (trace.CtlBatchConsumer) and declares it needs
// only the control facet (trace.PlanesOf == trace.PlaneCtl), runCtl
// delivers only the control-transfer events and the instruction counts
// they sit among. When the sink asks for the control facet plus the
// data tap (trace.PlaneCtl|trace.PlaneTap) and accepts tap batches
// (trace.TapBatchConsumer), the same loop also fills the tap. A nil sink
// runs runCtl too, delivering nowhere. Any other sink gets full events
// from the reference interpreter, runRef.
func (c *CPU) Run(budget uint64, sink trace.BatchConsumer) (uint64, error) {
	if c.prog == nil {
		return 0, ErrNoProgram
	}
	// Throughput instrumentation is per-Run, never per-instruction: two
	// timestamps and a few atomic adds amortized over the whole
	// traversal, with zero allocations.
	start := time.Now()
	n, plane, err := c.run(budget, sink)
	switch plane {
	case trace.PlaneCtl:
		mRunsCtl.Inc()
	case trace.PlaneCtl | trace.PlaneTap:
		mRunsTap.Inc()
	default:
		mRunsFull.Inc()
	}
	if n > 0 {
		mInstructions.Add(n)
		mNsPerInstr.Set(float64(time.Since(start).Nanoseconds()) / float64(n))
	}
	return n, err
}

// batchBufs is one set of batch buffers: evs is the full event batch
// of the reference interpreter; ctlEvs is the control-plane transfer
// buffer of runCtl and of control-plane replays, which also keep their
// return stack in stack; tap is the data tap of a control-plane run that
// carries one. Each batch buffer is sized lazily to the requesting batch
// size.
type batchBufs struct {
	evs    []trace.Event
	ctlEvs []trace.CtlEvent
	stack  []isa.Addr
	tap    tapState
}

// batches holds batch buffers between Run calls. A Run takes one set and
// returns it when it ends: batches never outlive their ConsumeBatch call
// (the trace package's batch-lifetime rule), so nothing can still refer
// to a returned set. A worker runs one traversal at a time; the bound
// covers four workers.
var batches = freelist.New[batchBufs]("interp.batchBufs", 4)

func (b *batchBufs) events(n int) []trace.Event {
	if len(b.evs) != n {
		b.evs = make([]trace.Event, n)
	}
	return b.evs
}

func (b *batchBufs) ctlEvents(n int) []trace.CtlEvent {
	if len(b.ctlEvs) != n {
		b.ctlEvs = make([]trace.CtlEvent, n)
	}
	return b.ctlEvs
}

// tapFor readies the data tap of a run at batch size n that starts at
// pc on a program with segment table segs and delivers to sink. The tap
// holds 2n memory accesses and n/8 register snapshots (at least one):
// at the default batch size a batch rarely ends early, and batch size
// 1 ends one after nearly every access.
func (b *batchBufs) tapFor(n int, segs []trace.Segment, pc isa.Addr, sink trace.TapBatchConsumer) *tapState {
	t := &b.tap
	if cap(t.tap.Mem) != 2*n {
		t.tap.Mem = make([]trace.MemAccess, 0, 2*n)
		t.tap.Regs = make([]trace.RegSnapshot, 0, max(1, n/8))
	}
	t.sink = sink
	t.tap.Segs, t.tap.PC = segs, pc
	t.tap.Mem, t.tap.Regs = t.tap.Mem[:0], t.tap.Regs[:0]
	return t
}

// discard is the sink of a Run without one. It is control-only, so such
// a Run takes runCtl.
type discard struct{}

func (discard) ConsumeBatch([]trace.Event)                       {}
func (discard) ConsumeCtlBatch([]trace.CtlEvent, uint64, uint64) {}

// run dispatches to the negotiated execution loop and reports the plane
// it delivered: trace.PlaneCtl, trace.PlaneCtl|trace.PlaneTap, or the
// full plane.
func (c *CPU) run(budget uint64, sink trace.BatchConsumer) (uint64, trace.Planes, error) {
	bufs := batches.Get()
	defer func() {
		bufs.tap.sink, bufs.tap.tap.Segs = nil, nil // hold no consumer or program in the free list
		batches.Put(bufs)
	}()
	n := c.BatchSize()
	if sink == nil {
		sink = discard{}
	}
	switch trace.PlanesOf(sink) {
	case trace.PlaneCtl:
		if cc, ok := sink.(trace.CtlBatchConsumer); ok {
			done, err := c.runCtl(budget, cc, bufs.ctlEvents(n), nil)
			return done, trace.PlaneCtl, err
		}
	case trace.PlaneCtl | trace.PlaneTap:
		if tc, ok := sink.(trace.TapBatchConsumer); ok {
			tap := bufs.tapFor(n, c.code.segments(), c.pc, tc)
			done, err := c.runCtl(budget, tc, bufs.ctlEvents(n), tap)
			return done, trace.PlaneCtl | trace.PlaneTap, err
		}
	}
	done, err := c.runRef(budget, sink, bufs.events(n))
	return done, trace.PlaneCtl | trace.PlaneData, err
}

// runRef is the reference interpreter: the original two-level switch
// over isa.Instr, with no predecode and no fusion, writing one full
// event per instruction into buf and flushing it to sink whenever it
// fills. It serves the full event plane, and differential tests check
// runCtl's transfers, tap and machine state against it.
func (c *CPU) runRef(budget uint64, sink trace.BatchConsumer, buf []trace.Event) (uint64, error) {
	// k is the number of committed events in buf.
	k := 0
	flush := func() {
		if k > 0 {
			sink.ConsumeBatch(buf[:k])
		}
		k = 0
	}
	var done uint64
	code := c.prog.Code
	n := isa.Addr(len(code))
	for !c.halted && (budget == 0 || done < budget) {
		if c.pc >= n {
			flush()
			return done, fmt.Errorf("%w: pc=%d len=%d", ErrPC, c.pc, n)
		}
		in := &code[c.pc]
		ev := &buf[k]
		*ev = trace.Event{Index: c.retired, PC: c.pc, Instr: in}
		next := c.pc + 1
		switch in.Kind {
		case isa.KindALU:
			v := c.alu(in)
			c.regs[in.Rd] = v
			ev.WroteReg, ev.WrittenReg, ev.WrittenVal = true, in.Rd, v
		case isa.KindLoad:
			addr := uint64(c.regs[in.Rs1] + in.Imm)
			v := c.mem.Load(addr)
			c.regs[in.Rd] = v
			ev.WroteReg, ev.WrittenReg, ev.WrittenVal = true, in.Rd, v
			ev.MemAddr, ev.MemVal = addr, v
		case isa.KindStore:
			addr := uint64(c.regs[in.Rs1] + in.Imm)
			v := c.regs[in.Rs2]
			c.mem.Store(addr, v)
			ev.MemAddr, ev.MemVal = addr, v
		case isa.KindBranch:
			if in.Cond.Holds(c.regs[in.Rs1]) {
				ev.Taken, ev.Target = true, in.Target
				next = in.Target
			}
		case isa.KindJump:
			ev.Taken, ev.Target = true, in.Target
			next = in.Target
		case isa.KindCall:
			if len(c.stack) >= MaxCallDepth {
				flush()
				return done, fmt.Errorf("%w at pc=%d", ErrCallDepth, c.pc)
			}
			c.stack = append(c.stack, c.pc+1)
			ev.Taken, ev.Target = true, in.Target
			next = in.Target
		case isa.KindRet:
			if len(c.stack) == 0 {
				flush()
				return done, fmt.Errorf("%w at pc=%d", ErrRetEmpty, c.pc)
			}
			ra := c.stack[len(c.stack)-1]
			c.stack = c.stack[:len(c.stack)-1]
			ev.Taken, ev.Target = true, ra
			next = ra
		case isa.KindSeq:
			var v int64
			if s, ok := c.seqs[in.Imm]; ok {
				v = s.Next()
			}
			c.regs[in.Rd] = v
			ev.WroteReg, ev.WrittenReg, ev.WrittenVal = true, in.Rd, v
		case isa.KindHalt:
			c.halted = true
		case isa.KindNop:
			// nothing
		}
		c.retired++
		done++
		c.pc = next
		if k++; k == len(buf) {
			sink.ConsumeBatch(buf)
			k = 0
		}
	}
	flush()
	return done, nil
}

// alu evaluates a KindALU instruction against the register file.
func (c *CPU) alu(in *isa.Instr) int64 {
	a, b := c.regs[in.Rs1], c.regs[in.Rs2]
	switch in.Op {
	case isa.OpAdd:
		return a + b
	case isa.OpAddI:
		return a + in.Imm
	case isa.OpSub:
		return a - b
	case isa.OpMul:
		return a * b
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpShl:
		return a << (uint64(in.Imm) & 63)
	case isa.OpShr:
		return a >> (uint64(in.Imm) & 63)
	case isa.OpMovI:
		return in.Imm
	case isa.OpMov:
		return a
	case isa.OpSlt:
		if a < b {
			return 1
		}
		return 0
	case isa.OpMod:
		if b == 0 {
			return 0
		}
		return a % b
	default:
		return 0
	}
}
