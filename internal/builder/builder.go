// Package builder is a structured code generator for the substrate ISA.
//
// Workload profiles (internal/workload) and property tests compose loops,
// conditionals, calls and straight-line work through this DSL instead of
// writing raw instruction slices. The builder:
//
//   - lays out main code first, then function bodies, patching forward
//     branches and call targets;
//   - materialises counted loops in the do-while shape the paper's
//     detector expects (backward closing branch at the bottom);
//   - keeps each loop's trip counter in a private static memory slot (or
//     on a software stack for loops inside recursive functions), so any
//     nesting and call structure is safe;
//   - records ground-truth loop descriptors so tests can compare the
//     dynamic detector against the static structure.
//
// Register conventions: r0 is kept zero, r1 is the transient trip-counter
// scratch, r28 the condition scratch, r29 the software-stack pointer,
// r24–r27 are workload base registers, and r12–r23 are free for workload
// data and straight-line work.
package builder

import (
	"errors"
	"fmt"
	"sync"

	"dynloop/internal/interp"
	"dynloop/internal/isa"
	"dynloop/internal/program"
)

// Well-known registers of the builder's convention.
const (
	// RegZero is kept architecturally zero.
	RegZero isa.Reg = 0
	// RegCounter is the transient loop-counter scratch.
	RegCounter isa.Reg = 1
	// RegCond is the conditional scratch used by IfSeq and WhileSeq.
	RegCond isa.Reg = 28
	// RegSP is the software stack pointer used by recursion-safe loops.
	RegSP isa.Reg = 29
)

// Memory-layout constants of generated programs.
const (
	// slotBase is where static per-loop counter slots start.
	slotBase = 1 << 20
	// StackBase is the initial value of the software stack pointer.
	StackBase = 1 << 24
	// HeapBase is the start of the workload data region.
	HeapBase = 1 << 28
)

// SeqFactory builds a fresh instance of an input sequence. Units store
// factories, not live sequences, so every CPU created from a Unit replays
// identical input data.
type SeqFactory func() interp.Sequence

// seqTemplate builds a fresh instance of an input sequence for a seed:
// the seed is the program's input set, so one template serves the
// program at every seed.
type seqTemplate func(seed uint64) interp.Sequence

// Unit is a built program bound to one seed. The program (code, loop
// descriptors, predecoded micro-ops and sequence templates) does not
// depend on the seed and is shared by the unit at every seed; the seed
// selects only the input sequences a CPU reads. A Unit is immutable: it
// may be cached and shared, and any number of goroutines may call NewCPU
// on it concurrently.
type Unit struct {
	// Prog is the validated program.
	Prog *program.Program
	// Loops describes every loop the builder emitted (ground truth).
	Loops []LoopInfo

	seed uint64
	// seqs holds the template of each sequence id, indexed by id.
	seqs []seqTemplate
	// reseedable reports whether the unit reads its seed only through
	// the seed seqs are given; see WithSeed.
	reseedable bool
	// built is the unit Build returned when WithSeed made this one; its
	// predecoded code serves both. Nil on a built unit.
	built *Unit

	// code is Prog's predecoded micro-op array, built by the first NewCPU
	// (or Code) and shared by every CPU made from the Unit.
	codeOnce sync.Once
	code     *interp.Code
}

// NewCPU returns a CPU with the program loaded, fresh sequences bound and
// builder invariants (zero register, stack pointer) established. The
// program is predecoded once per Unit and its rebindings; registers,
// memory and sequences are fresh for every CPU.
func (u *Unit) NewCPU() *interp.CPU {
	c := u.Code().NewCPU()
	for id, t := range u.seqs {
		c.BindSeq(int64(id), t(u.seed))
	}
	return c
}

// Code returns the unit's predecoded program, predecoding it on first
// use; every CPU made from the Unit executes from it.
func (u *Unit) Code() *interp.Code {
	if u.built != nil {
		return u.built.Code()
	}
	u.codeOnce.Do(func() { u.code = interp.Predecode(u.Prog) })
	return u.code
}

// WithSeed returns the unit's program bound to another seed: the same
// Prog, Loops and predecoded code, with input sequences derived from seed
// exactly as a fresh build at seed derives them. It reports false for a
// unit whose build registered a raw NewSeq factory or called SeedFor,
// whose values are fixed to the build's seed, and for Random units,
// whose structure is.
func (u *Unit) WithSeed(seed uint64) (*Unit, bool) {
	if !u.reseedable {
		return nil, false
	}
	built := u
	if u.built != nil {
		built = u.built
	}
	return &Unit{Prog: u.Prog, Loops: u.Loops, seed: seed, seqs: u.seqs, reseedable: true, built: built}, true
}

// LoopInfo is the static ground truth for one emitted loop.
type LoopInfo struct {
	// ID numbers loops in emission order.
	ID int
	// Head is the loop target address T.
	Head isa.Addr
	// Latch is the address of the closing backward branch (the static B).
	Latch isa.Addr
	// Guarded reports whether a zero-trip guard precedes the loop.
	Guarded bool
	// Depth is the static nesting depth within its emission context
	// (0 = outermost).
	Depth int
}

// Trip says where a counted loop's trip count comes from.
type Trip struct {
	kind tripKind
	seq  int64
	reg  isa.Reg
	imm  int64
}

type tripKind uint8

const (
	tripSeq tripKind = iota
	tripReg
	tripImm
)

// TripSeq draws the trip count from sequence id at every execution.
func TripSeq(id int64) Trip { return Trip{kind: tripSeq, seq: id} }

// TripReg takes the trip count from a register at loop entry.
func TripReg(r isa.Reg) Trip { return Trip{kind: tripReg, reg: r} }

// TripImm uses a constant trip count.
func TripImm(n int64) Trip { return Trip{kind: tripImm, imm: n} }

// LoopOpt tunes CountedLoop emission.
type LoopOpt struct {
	// Guarded emits a zero-trip guard before the loop (while-style).
	Guarded bool
	// RecursiveSafe keeps the trip counter on the software stack so the
	// loop survives re-entrant (recursive) activation.
	RecursiveSafe bool
}

// FuncRef names a declared function.
type FuncRef struct{ id int }

type funcDef struct {
	name    string
	body    func()
	defined bool
	addr    isa.Addr
	emitted bool
	calls   []isa.Addr // call sites to patch
}

type loopCtx struct {
	exitFixups *[]isa.Addr
	latchAddr  *isa.Addr // for Continue; nil until latch emitted (Continue uses fixup list)
	contFixups *[]isa.Addr
	recursive  bool
	info       int // index into loops
}

// Builder accumulates a program. Create with New, emit through the
// structured methods, then call Build.
type Builder struct {
	name    string
	seed    uint64
	code    []isa.Instr
	symbols map[isa.Addr]string
	seqs    []seqTemplate
	// pinned is set once the build reads its own seed (SeedFor or a raw
	// NewSeq factory), which makes the unit non-reseedable.
	pinned bool

	funcs     []*funcDef
	loopStack []loopCtx
	loops     []LoopInfo
	nextSlot  int64

	inFunc bool
	errs   []error
}

// New returns a Builder for a program with the given name. The seed
// deterministically derives all sequence seeds.
func New(name string, seed uint64) *Builder {
	b := &Builder{
		name:     name,
		seed:     seed,
		symbols:  make(map[isa.Addr]string),
		nextSlot: slotBase,
	}
	// Establish conventions: r0 = 0, software stack pointer.
	b.emit(isa.MovI(RegZero, 0))
	b.emit(isa.MovI(RegSP, StackBase))
	return b
}

// errf records a construction error; Build reports the first one.
func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("builder %q: "+format, append([]any{b.name}, args...)...))
}

func (b *Builder) emit(in isa.Instr) isa.Addr {
	a := isa.Addr(len(b.code))
	b.code = append(b.code, in)
	return a
}

// Emit appends a raw instruction and returns its address. Prefer the
// structured methods; Emit exists for tests that need unstructured shapes
// (overlapped loops, multiple closing branches).
func (b *Builder) Emit(in isa.Instr) isa.Addr { return b.emit(in) }

// Here returns the address the next instruction will get.
func (b *Builder) Here() isa.Addr { return isa.Addr(len(b.code)) }

// Label attaches a symbol to the next instruction's address.
func (b *Builder) Label(name string) { b.symbols[b.Here()] = name }

// SeedFor derives a per-purpose RNG seed from the builder's base seed, so
// workloads get decorrelated but reproducible streams. Whatever the
// caller derives from it is fixed to this seed, so the built unit is not
// reseedable (see Unit.WithSeed).
func (b *Builder) SeedFor(purpose int64) uint64 {
	b.pinned = true
	return seedFor(b.seed, purpose)
}

func seedFor(seed uint64, purpose int64) uint64 {
	x := seed ^ uint64(purpose)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x | 1
}

// NewSeq registers a sequence factory and returns its id. The factory
// ignores the seed a unit is bound to, so the built unit is not
// reseedable; the helpers below are.
func (b *Builder) NewSeq(f SeqFactory) int64 {
	b.pinned = true
	return b.addSeq(func(uint64) interp.Sequence { return f() })
}

// addSeq registers a sequence template and returns its id.
func (b *Builder) addSeq(t seqTemplate) int64 {
	b.seqs = append(b.seqs, t)
	return int64(len(b.seqs) - 1)
}

// seededSeq registers a template whose RNG seed is derived from the
// unit's seed for purpose base+id, id being the sequence's own id.
func (b *Builder) seededSeq(base int64, mk func(seed uint64) interp.Sequence) int64 {
	purpose := base + int64(len(b.seqs))
	return b.addSeq(func(seed uint64) interp.Sequence { return mk(seedFor(seed, purpose)) })
}

// ConstSeq registers a constant sequence.
func (b *Builder) ConstSeq(v int64) int64 {
	return b.addSeq(func(uint64) interp.Sequence { return interp.Const(v) })
}

// CounterSeq registers an arithmetic sequence start, start+stride, ...
func (b *Builder) CounterSeq(start, stride int64) int64 {
	return b.addSeq(func(uint64) interp.Sequence { return interp.Counter(start, stride) })
}

// CycleSeq registers a sequence cycling over vals.
func (b *Builder) CycleSeq(vals ...int64) int64 {
	return b.addSeq(func(uint64) interp.Sequence { return interp.Cycle(vals...) })
}

// UniformSeq registers a uniform sequence in [lo, hi].
func (b *Builder) UniformSeq(lo, hi int64) int64 {
	return b.seededSeq(1000, func(seed uint64) interp.Sequence { return interp.Uniform(lo, hi, seed) })
}

// GeometricSeq registers a geometric sequence with minimum min and
// continuation probability p.
func (b *Builder) GeometricSeq(min int64, p float64, limit int64) int64 {
	return b.seededSeq(2000, func(seed uint64) interp.Sequence { return interp.Geometric(min, p, limit, seed) })
}

// BernoulliSeq registers a 0/1 sequence that yields 1 with probability p.
func (b *Builder) BernoulliSeq(p float64) int64 {
	w1 := int64(p * 1000)
	if w1 < 0 {
		w1 = 0
	}
	if w1 > 1000 {
		w1 = 1000
	}
	w0 := 1000 - w1
	return b.seededSeq(3000, func(seed uint64) interp.Sequence {
		return interp.Mix(seed, []int64{w0, w1}, interp.Const(0), interp.Const(1))
	})
}

// NoisySeq registers a sequence that follows base but is perturbed by up to
// ±amp with probability p. base must not depend on the seed: it is called
// afresh for every CPU.
func (b *Builder) NoisySeq(base SeqFactory, amp int64, p float64) int64 {
	return b.seededSeq(4000, func(seed uint64) interp.Sequence { return interp.Noisy(base(), amp, p, seed) })
}

// SetSeq emits rd = next value of sequence id.
func (b *Builder) SetSeq(rd isa.Reg, id int64) { b.emit(isa.Seq(rd, id)) }

// MovI emits rd = imm.
func (b *Builder) MovI(rd isa.Reg, imm int64) { b.emit(isa.MovI(rd, imm)) }

// Advance emits rd = rd + imm (the canonical stride update of live-ins).
func (b *Builder) Advance(rd isa.Reg, imm int64) { b.emit(isa.AddI(rd, rd, imm)) }

// LoadAt emits rd = mem[base+off].
func (b *Builder) LoadAt(rd, base isa.Reg, off int64) { b.emit(isa.Load(rd, base, off)) }

// StoreAt emits mem[base+off] = rs.
func (b *Builder) StoreAt(base isa.Reg, off int64, rs isa.Reg) { b.emit(isa.Store(base, off, rs)) }

// Work emits n deterministic ALU instructions over the scratch
// registers. Registers r16–r19 are affine accumulators (advanced only by
// constants, so iterations that execute the same path have
// stride-predictable live-in values, like real induction variables);
// r20–r23 are write-only temporaries computed from the accumulators.
func (b *Builder) Work(n int) {
	for i := 0; i < n; i++ {
		acc := isa.Reg(16 + i%4)
		acc2 := isa.Reg(16 + (i+1)%4)
		tmp := isa.Reg(20 + i%4)
		switch i % 3 {
		case 0:
			b.emit(isa.AddI(acc, acc, int64(1+i%7)))
		case 1:
			b.emit(isa.ALU(isa.OpAdd, tmp, acc, acc2))
		default:
			b.emit(isa.AddI(acc2, acc2, int64(2+i%5)))
		}
	}
}

// WorkMem emits n instructions alternating affine accumulator updates
// with loads and stores at base+k for k in [0, span). Stored values come
// from the affine accumulators, so with a strided base both the touched
// addresses and the loaded values are stride-predictable live-ins.
func (b *Builder) WorkMem(n int, base isa.Reg, span int64) {
	if span <= 0 {
		span = 8
	}
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			b.emit(isa.Load(isa.Reg(20+i%4), base, int64(i)%span))
		case 1:
			b.emit(isa.ALU(isa.OpAdd, isa.Reg(20+i%4), isa.Reg(20+i%4), isa.Reg(16+i%4)))
		case 2:
			b.emit(isa.Store(base, int64(i)%span, isa.Reg(16+i%4)))
		default:
			b.emit(isa.AddI(isa.Reg(16+(i+2)%4), isa.Reg(16+(i+2)%4), 1))
		}
	}
}

// Chaos emits a sequence draw into scratch register r23 followed by mixing
// instructions, making downstream live-in values unpredictable.
func (b *Builder) Chaos(seqID int64) {
	b.emit(isa.Seq(23, seqID))
	b.emit(isa.ALU(isa.OpXor, 22, 22, 23))
	b.emit(isa.ALU(isa.OpAdd, 21, 21, 22))
}

// CountedLoop emits a loop whose body runs trip-count times (drawn at
// entry). With opt.Guarded, a zero-or-negative count skips the loop
// entirely; otherwise the body runs at least once.
func (b *Builder) CountedLoop(t Trip, opt LoopOpt, body func()) {
	if opt.RecursiveSafe {
		b.countedLoopStack(t, opt, body)
		return
	}
	slot := b.nextSlot
	b.nextSlot++

	// Trip count into RegCounter.
	switch t.kind {
	case tripSeq:
		b.emit(isa.Seq(RegCounter, t.seq))
	case tripReg:
		b.emit(isa.Mov(RegCounter, t.reg))
	case tripImm:
		b.emit(isa.MovI(RegCounter, t.imm))
	}
	var exitFixups, contFixups []isa.Addr
	if opt.Guarded {
		exitFixups = append(exitFixups, b.emit(isa.Branch(isa.CondLEZ, RegCounter, 0)))
	}
	b.emit(isa.Store(RegZero, slot, RegCounter))

	head := b.Here()
	info := len(b.loops)
	b.loops = append(b.loops, LoopInfo{ID: info, Head: head, Guarded: opt.Guarded, Depth: len(b.loopStack)})
	b.loopStack = append(b.loopStack, loopCtx{exitFixups: &exitFixups, contFixups: &contFixups, info: info})

	body()

	latch := b.Here()
	for _, at := range contFixups {
		b.code[at].Target = latch
	}
	b.emit(isa.Load(RegCounter, RegZero, slot))
	b.emit(isa.AddI(RegCounter, RegCounter, -1))
	b.emit(isa.Store(RegZero, slot, RegCounter))
	bAddr := b.emit(isa.Branch(isa.CondGTZ, RegCounter, head))
	b.loops[info].Latch = bAddr

	b.loopStack = b.loopStack[:len(b.loopStack)-1]
	exit := b.Here()
	for _, at := range exitFixups {
		b.code[at].Target = exit
	}
}

// countedLoopStack is CountedLoop with the trip counter on the software
// stack, safe for loops inside recursive functions.
func (b *Builder) countedLoopStack(t Trip, opt LoopOpt, body func()) {
	switch t.kind {
	case tripSeq:
		b.emit(isa.Seq(RegCounter, t.seq))
	case tripReg:
		b.emit(isa.Mov(RegCounter, t.reg))
	case tripImm:
		b.emit(isa.MovI(RegCounter, t.imm))
	}
	var exitFixups, contFixups []isa.Addr
	if opt.Guarded {
		exitFixups = append(exitFixups, b.emit(isa.Branch(isa.CondLEZ, RegCounter, 0)))
	}
	// push counter
	b.emit(isa.AddI(RegSP, RegSP, -1))
	b.emit(isa.Store(RegSP, 0, RegCounter))

	head := b.Here()
	info := len(b.loops)
	b.loops = append(b.loops, LoopInfo{ID: info, Head: head, Guarded: opt.Guarded, Depth: len(b.loopStack)})
	b.loopStack = append(b.loopStack, loopCtx{exitFixups: &exitFixups, contFixups: &contFixups, info: info, recursive: true})

	body()

	latch := b.Here()
	for _, at := range contFixups {
		b.code[at].Target = latch
	}
	b.emit(isa.Load(RegCounter, RegSP, 0))
	b.emit(isa.AddI(RegCounter, RegCounter, -1))
	b.emit(isa.Store(RegSP, 0, RegCounter))
	bAddr := b.emit(isa.Branch(isa.CondGTZ, RegCounter, head))
	b.loops[info].Latch = bAddr

	b.loopStack = b.loopStack[:len(b.loopStack)-1]
	// pop
	b.emit(isa.AddI(RegSP, RegSP, 1))
	exit := b.Here()
	for _, at := range exitFixups {
		b.code[at].Target = exit
	}
}

// WhileSeq emits a loop that repeats while sequence id yields a nonzero
// value (checked at the bottom, so the body runs at least once). A
// Bernoulli sequence gives geometric trip counts.
func (b *Builder) WhileSeq(id int64, body func()) {
	var exitFixups, contFixups []isa.Addr
	// A WhileSeq has no entry preamble, so without a marker its head would
	// coincide with the enclosing body's first instruction and the
	// detector (which identifies loops by target address) would merge the
	// two loops. One entry nop keeps loop identities distinct.
	b.emit(isa.Nop())
	head := b.Here()
	info := len(b.loops)
	b.loops = append(b.loops, LoopInfo{ID: info, Head: head, Depth: len(b.loopStack)})
	b.loopStack = append(b.loopStack, loopCtx{exitFixups: &exitFixups, contFixups: &contFixups, info: info})

	body()

	latch := b.Here()
	for _, at := range contFixups {
		b.code[at].Target = latch
	}
	b.emit(isa.Seq(RegCond, id))
	bAddr := b.emit(isa.Branch(isa.CondNEZ, RegCond, head))
	b.loops[info].Latch = bAddr

	b.loopStack = b.loopStack[:len(b.loopStack)-1]
	exit := b.Here()
	for _, at := range exitFixups {
		b.code[at].Target = exit
	}
}

// Break emits a jump out of the innermost loop. The jump target lies
// outside the loop body, so the detector sees an exit branch (§2.1).
func (b *Builder) Break() {
	if len(b.loopStack) == 0 {
		b.errf("Break outside loop")
		return
	}
	ctx := &b.loopStack[len(b.loopStack)-1]
	*ctx.exitFixups = append(*ctx.exitFixups, b.emit(isa.Jump(0)))
}

// BreakIfSeq draws sequence id (Bernoulli) and breaks out of the innermost
// loop when it yields nonzero.
func (b *Builder) BreakIfSeq(id int64) {
	if len(b.loopStack) == 0 {
		b.errf("BreakIfSeq outside loop")
		return
	}
	b.emit(isa.Seq(RegCond, id))
	ctx := &b.loopStack[len(b.loopStack)-1]
	*ctx.exitFixups = append(*ctx.exitFixups, b.emit(isa.Branch(isa.CondNEZ, RegCond, 0)))
}

// Continue emits a jump to the innermost loop's latch (the trip-count
// update), skipping the rest of the body.
func (b *Builder) Continue() {
	if len(b.loopStack) == 0 {
		b.errf("Continue outside loop")
		return
	}
	ctx := &b.loopStack[len(b.loopStack)-1]
	*ctx.contFixups = append(*ctx.contFixups, b.emit(isa.Jump(0)))
}

// IfSeq draws sequence id and runs then when it yields nonzero, els
// (which may be nil) otherwise.
func (b *Builder) IfSeq(id int64, then, els func()) {
	b.emit(isa.Seq(RegCond, id))
	b.IfReg(isa.CondNEZ, RegCond, then, els)
}

// IfReg branches on cond applied to register r: then when it holds, els
// (which may be nil) otherwise.
func (b *Builder) IfReg(cond isa.Cond, r isa.Reg, then, els func()) {
	skip := b.emit(isa.Branch(negate(cond), r, 0))
	then()
	if els == nil {
		b.code[skip].Target = b.Here()
		return
	}
	over := b.emit(isa.Jump(0))
	b.code[skip].Target = b.Here()
	els()
	b.code[over].Target = b.Here()
}

// negate returns the complementary condition.
func negate(c isa.Cond) isa.Cond {
	switch c {
	case isa.CondEQZ:
		return isa.CondNEZ
	case isa.CondNEZ:
		return isa.CondEQZ
	case isa.CondLTZ:
		return isa.CondGEZ
	case isa.CondGEZ:
		return isa.CondLTZ
	case isa.CondGTZ:
		return isa.CondLEZ
	default:
		return isa.CondGTZ
	}
}

// Declare registers a function name for later definition (needed for
// recursion and mutual recursion).
func (b *Builder) Declare(name string) FuncRef {
	b.funcs = append(b.funcs, &funcDef{name: name})
	return FuncRef{id: len(b.funcs) - 1}
}

// Define attaches a body to a declared function. The body is emitted by
// Build, followed by an implicit return.
func (b *Builder) Define(f FuncRef, body func()) {
	fd := b.funcs[f.id]
	if fd.defined {
		b.errf("function %q defined twice", fd.name)
		return
	}
	fd.body = body
	fd.defined = true
}

// Func declares and defines a function in one step.
func (b *Builder) Func(name string, body func()) FuncRef {
	f := b.Declare(name)
	b.Define(f, body)
	return f
}

// Call emits a call to f; the target is patched at Build time.
func (b *Builder) Call(f FuncRef) {
	fd := b.funcs[f.id]
	fd.calls = append(fd.calls, b.emit(isa.Call(0)))
}

// Return emits an early return. Inside recursion-safe loops this would
// leak software-stack slots, so the builder rejects it there.
func (b *Builder) Return() {
	for _, ctx := range b.loopStack {
		if ctx.recursive {
			b.errf("Return inside a RecursiveSafe loop would leak the counter stack")
			return
		}
	}
	if !b.inFunc {
		b.errf("Return outside function body")
		return
	}
	b.emit(isa.Ret())
}

// Build finalises the program: appends a halt after main, emits all
// function bodies (each ending in an implicit return), patches call sites
// and validates. Loop descriptors are available on the returned Unit.
func (b *Builder) Build() (*Unit, error) {
	b.emit(isa.Halt())
	// Function bodies may register further functions while being emitted.
	for {
		progress := false
		for _, fd := range b.funcs {
			if fd.emitted || !fd.defined {
				continue
			}
			fd.emitted = true
			progress = true
			fd.addr = b.Here()
			b.symbols[fd.addr] = fd.name
			b.inFunc = true
			fd.body()
			b.inFunc = false
			b.emit(isa.Ret())
		}
		if !progress {
			break
		}
	}
	for _, fd := range b.funcs {
		if !fd.defined {
			b.errf("function %q declared but never defined", fd.name)
			continue
		}
		for _, site := range fd.calls {
			b.code[site].Target = fd.addr
		}
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.loopStack) != 0 {
		return nil, errors.New("builder: unclosed loop context")
	}
	p := &program.Program{Name: b.name, Code: b.code, Entry: 0, Symbols: b.symbols}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Unit{Prog: p, Loops: b.loops, seed: b.seed, seqs: b.seqs, reseedable: !b.pinned}, nil
}
