package interp

// Control-plane replay from branch outcomes. In this ISA the only
// dynamic control fact is a conditional branch's direction: jump and
// call targets are static, and a return goes to its call's successor.
// So the control plane of a run — the transfer events runCtl delivers
// and the instruction counts their batches cover — is fully determined
// by the program and one bit per branch. A CtlRecorder collects those
// bits while a traversal runs; CtlRecording.Replay then re-delivers the
// same batches by a static walk of the program that jumps over
// straight-line code, costing about one step per control instruction
// instead of one per instruction.

import (
	"errors"
	"fmt"

	"dynloop/internal/isa"
	"dynloop/internal/trace"
)

// ErrReplay reports a recording that does not fit the program it is
// replayed on: a branch beyond the recorded bits, or a transfer the
// recorded run could not have made. It signals a software bug, never a
// property of the workload.
var ErrReplay = errors.New("interp: recording does not match the program")

// MaxCtlRecordingBytes bounds one recording's branch bits. Budgets go
// up to 2^40 instructions, so a recorder that outgrows the bound stops
// recording and yields no recording; 1 MiB holds about 8M branches,
// hundreds of millions of instructions of the paper's workloads.
const MaxCtlRecordingBytes = 1 << 20

// isCtlOp reports whether a plain micro-op ends a straight-line run for
// the replay walk: a branch, jump, call, return or halt. The first
// constituent of a fused pair never is; a pair's branch keeps its plain
// micro-op in the next slot.
func isCtlOp(op uint8) bool {
	switch op {
	case opJump, opCall, opRet, opHalt:
		return true
	}
	return op >= opBrEQZ && op <= opBrNever
}

// skips returns the program's straight-line table: skip[pc] is the
// number of instructions from pc to the next control instruction, or to
// the end of the program when none follows. It is built on first use
// and shared, like the micro-ops, by every replay of the Code.
func (k *Code) skips() []uint32 {
	k.skipOnce.Do(func() {
		skip := make([]uint32, len(k.ops))
		var d uint32
		for pc := len(k.ops) - 1; pc >= 0; pc-- {
			if isCtlOp(k.ops[pc].op) {
				d = 0
			} else {
				d++
			}
			skip[pc] = d
		}
		k.skip = skip
	})
	return k.skip
}

// CtlRecorder is a control-only pass that records one bit per branch
// event of the stream it sees: whether the branch was taken. It accepts
// full-plane batches too, so it can ride a traversal that some other
// consumer (a trace-archive recorder) pulls onto the full plane. Attach
// it to a traversal from the start of the stream; Recording then turns
// a completed traversal into a CtlRecording.
type CtlRecorder struct {
	bits     []uint64
	branches uint64 // bits recorded
	covered  uint64 // instructions the stream has covered so far
	over     bool   // the bits outgrew MaxCtlRecordingBytes
	done     bool   // Finalize ran: the traversal completed
}

// Init implements trace.Pass.
func (r *CtlRecorder) Init() {}

// Finalize implements trace.Pass. A broadcast calls it only after the
// last batch of a traversal that ended without a machine error.
func (r *CtlRecorder) Finalize() { r.done = true }

// NeedPlanes reports that the recorder reads only the control plane.
func (r *CtlRecorder) NeedPlanes() trace.Planes { return trace.PlaneCtl }

// ConsumeCtlBatch records the batch's branch outcomes.
func (r *CtlRecorder) ConsumeCtlBatch(evs []trace.CtlEvent, _, n uint64) {
	for i := range evs {
		if evs[i].Instr.Kind == isa.KindBranch {
			r.add(evs[i].Taken)
		}
	}
	r.covered += n
}

// ConsumeBatch records the branch outcomes of a full-plane batch.
func (r *CtlRecorder) ConsumeBatch(evs []trace.Event) {
	for i := range evs {
		if evs[i].Instr.Kind == isa.KindBranch {
			r.add(evs[i].Taken)
		}
	}
	r.covered += uint64(len(evs))
}

func (r *CtlRecorder) add(taken bool) {
	if r.over {
		return
	}
	w := r.branches >> 6
	if w == uint64(len(r.bits)) {
		if len(r.bits) >= MaxCtlRecordingBytes/8 {
			r.over, r.bits = true, nil
			return
		}
		r.bits = append(r.bits, 0)
	}
	if taken {
		r.bits[w] |= 1 << (r.branches & 63)
	}
	r.branches++
}

// Recording returns the recording of the traversal the recorder saw,
// replayable on code, the program that traversal ran; halted reports
// whether it ended at a halt. It returns nil when the traversal did not
// complete (Finalize never ran, as after a machine error) or the bits
// outgrew MaxCtlRecordingBytes.
func (r *CtlRecorder) Recording(code *Code, halted bool) *CtlRecording {
	if !r.done || r.over {
		return nil
	}
	return &CtlRecording{code: code, bits: r.bits, branches: r.branches, instrs: r.covered, halted: halted}
}

// CtlRecording is the control plane of one run from a program's entry,
// as branch outcomes. It is immutable, so any number of goroutines may
// replay it at once.
type CtlRecording struct {
	code     *Code
	bits     []uint64
	branches uint64
	instrs   uint64
	halted   bool
}

// Instructions returns the number of instructions the recording covers.
func (r *CtlRecording) Instructions() uint64 { return r.instrs }

// Halted reports whether the recorded run ended at a halt, in which case
// the recording is the whole stream and serves any budget.
func (r *CtlRecording) Halted() bool { return r.halted }

// CanServe reports whether replaying the recording reproduces an
// interpreted run at the given budget exactly: either the program
// halted, or the budget is a non-zero prefix of what was recorded.
// Budget 0 means run-to-halt and needs a halted recording.
func (r *CtlRecording) CanServe(budget uint64) bool {
	return r.halted || (budget > 0 && budget <= r.instrs)
}

// Covers reports whether r serves every budget o serves.
func (r *CtlRecording) Covers(o *CtlRecording) bool {
	return r.halted || (!o.halted && r.instrs >= o.instrs)
}

// Replay delivers the control plane of the first min(budget, recorded)
// instructions (budget 0: all of them) to sink, in the batches runCtl
// delivers at batch size batch (<= 0 selects DefaultBatchSize): the
// same transfer events, field for field, and the same covered counts.
// It returns the instructions covered and whether the run halted there.
// The batch buffer and the return stack come from the interpreter's
// pool, so a warm replay does not allocate.
func (r *CtlRecording) Replay(budget uint64, batch int, sink trace.CtlBatchConsumer) (uint64, bool, error) {
	mCtlReplays.Inc()
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	limit := r.instrs
	if budget != 0 && budget < limit {
		limit = budget
	}
	bufs := bufPool.Get().(*batchBufs)
	defer bufPool.Put(bufs)
	var n uint64
	var halted bool
	var err error
	n, halted, bufs.stack, err = r.replay(limit, sink, bufs.ctlEvents(batch), bufs.stack[:0])
	return n, halted, err
}

// replay is Replay's walk over the first limit instructions, with buf
// as the batch buffer and stack as the return stack; it returns the
// stack, grown as needed, for the pool to keep.
func (r *CtlRecording) replay(limit uint64, sink trace.CtlBatchConsumer, buf []trace.CtlEvent, stack []isa.Addr) (uint64, bool, []isa.Addr, error) {
	ops, skip := r.code.ops, r.code.skips()
	n := uint64(len(ops))
	pc := uint64(r.code.prog.Entry)
	var retired, first, bit uint64
	kmax := len(buf)
	k := 0
	halted := false
	var err error
loop:
	for !halted && retired < limit {
		if pc >= n {
			err = fmt.Errorf("%w: pc=%d left the program", ErrReplay, pc)
			break
		}
		// Jump over the straight-line code before the next control
		// instruction, or stop inside it at the limit.
		if d := uint64(skip[pc]); d > 0 {
			if d >= limit-retired {
				retired = limit
				break
			}
			retired += d
			if pc += d; pc >= n {
				continue
			}
		}
		u := &ops[pc]
		switch u.op {
		case opCall:
			if len(stack) >= MaxCallDepth {
				err = fmt.Errorf("%w: call depth exceeded at pc=%d", ErrReplay, pc)
				break loop
			}
			stack = append(stack, isa.Addr(pc+1))
			pc = uint64(u.target)
			retired++
			continue
		case opHalt:
			retired++
			halted = true
			continue
		case opJump:
			buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in,
				Taken: true, Target: isa.Addr(u.target)}
			pc = uint64(u.target)
		case opRet:
			if len(stack) == 0 {
				err = fmt.Errorf("%w: return with an empty stack at pc=%d", ErrReplay, pc)
				break loop
			}
			ra := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in,
				Taken: true, Target: ra}
			pc = uint64(ra)
		default: // a branch; opBrNever was recorded as not taken
			if bit == r.branches {
				err = fmt.Errorf("%w: branch at pc=%d beyond the %d recorded", ErrReplay, pc, r.branches)
				break loop
			}
			if r.bits[bit>>6]>>(bit&63)&1 != 0 {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in,
					Taken: true, Target: isa.Addr(u.target)}
				pc = uint64(u.target)
			} else {
				buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in}
				pc++
			}
			bit++
		}
		retired++
		if k++; k == kmax {
			sink.ConsumeCtlBatch(buf, first, retired-first)
			k, first = 0, retired
		}
	}
	deliverCtl(sink, buf[:k], first, retired-first)
	return retired, halted, stack, err
}
