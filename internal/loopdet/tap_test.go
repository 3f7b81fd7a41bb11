package loopdet_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
	"dynloop/internal/program"
	"dynloop/internal/trace"
	"dynloop/internal/workload"
)

// tapReplay is a tap observer that rebuilds the instruction stream from
// what the tap plane hands it: every address, by walking each run from
// its start address, every access, and every register snapshot. fresh
// records whether a snapshot arrived since the last run, which must
// hold at every execution and iteration start.
type tapReplay struct {
	loopdet.NopObserver
	pcs   []isa.Addr
	mem   []trace.MemAccess
	regs  [][isa.NumRegs]int64
	fresh bool
	err   error
}

func (o *tapReplay) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf(format, args...)
	}
}

func (o *tapReplay) Run(r *loopdet.TapRun) {
	if r.First != uint64(len(o.pcs)) {
		o.fail("run from %d after %d instructions", r.First, len(o.pcs))
	}
	for k := uint64(0); k < r.N; k++ {
		o.pcs = append(o.pcs, trace.Advance(r.Segs, r.PC, k))
	}
	for _, m := range r.Mem {
		if m.Index < r.First || m.Index >= r.First+r.N {
			o.fail("access at %d reported with the run [%d, %d)", m.Index, r.First, r.First+r.N)
		}
	}
	o.mem = append(o.mem, r.Mem...)
	o.fresh = false
}

func (o *tapReplay) Regs(regs *[isa.NumRegs]int64) {
	o.regs = append(o.regs, *regs)
	o.fresh = true
}

func (o *tapReplay) ExecStart(x *loopdet.Exec) {
	if !o.fresh {
		o.fail("execution %d starts without a register snapshot", x.ID)
	}
}

func (o *tapReplay) IterStart(x *loopdet.Exec, idx uint64) {
	if !o.fresh {
		o.fail("iteration %d of execution %d starts at %d without a register snapshot", x.Iters, x.ID, idx)
	}
}

// wantTap derives what the tap plane must deliver from the full event
// stream of the reference interpreter: the addresses, the loads and
// stores, and the register file after every taken backward branch or
// jump.
func wantTap(u *builder.Unit, budget uint64) (pcs []isa.Addr, mem []trace.MemAccess, regs [][isa.NumRegs]int64) {
	var rec trace.Recorder
	_, _ = u.NewCPU().Run(budget, &rec)
	var shadow [isa.NumRegs]int64
	for i := range rec.Events {
		ev := &rec.Events[i]
		pcs = append(pcs, ev.PC)
		if k := ev.Instr.Kind; k.TouchesMem() {
			mem = append(mem, trace.MemAccess{Index: ev.Index, Addr: ev.MemAddr, Val: ev.MemVal, Store: k == isa.KindStore})
		}
		if ev.WroteReg {
			shadow[ev.WrittenReg] = ev.WrittenVal
		}
		if trace.IsTransfer(ev.Instr.Kind) && trace.TakesSnapshot(&trace.CtlEvent{PC: ev.PC, Instr: ev.Instr, Taken: ev.Taken}) {
			regs = append(regs, shadow)
		}
	}
	return pcs, mem, regs
}

// checkTap runs u up to budget under a detector with a tapReplay at
// every batch size and periodic flush the tap tests use, and compares
// what the tap observer rebuilds with the reference full plane.
func checkTap(t *testing.T, u *builder.Unit, budget uint64) {
	t.Helper()
	pcs, mem, regs := wantTap(u, budget)
	for _, batch := range []int{1, 3, 1024} {
		for _, flush := range []uint64{0, 7} {
			o := &tapReplay{}
			det := loopdet.New(loopdet.Config{Capacity: 16, FlushInterval: flush})
			det.AddObserver(o)
			cpu := u.NewCPU()
			cpu.SetBatchSize(batch)
			_, _ = cpu.Run(budget, det)
			name := fmt.Sprintf("%s budget %d batch %d flush %d", u.Prog.Name, budget, batch, flush)
			switch {
			case o.err != nil:
				t.Fatalf("%s: %v", name, o.err)
			case !reflect.DeepEqual(o.pcs, pcs):
				t.Fatalf("%s: the runs cover %d addresses that differ from the %d of the full plane", name, len(o.pcs), len(pcs))
			case !reflect.DeepEqual(o.mem, mem):
				t.Fatalf("%s: the tap carried %d accesses that differ from the %d of the full plane", name, len(o.mem), len(mem))
			case !reflect.DeepEqual(o.regs, regs):
				t.Fatalf("%s: the tap carried %d register snapshots that differ from the %d of the full plane", name, len(o.regs), len(regs))
			}
		}
	}
}

// fusedLoop is a loop whose body holds every fused pair that loads,
// stores or branches (see the interpreter's predecode), so the tap's
// fused paths and, under small budgets, its one-constituent tail
// all run.
func fusedLoop(t *testing.T) *builder.Unit {
	t.Helper()
	p := &program.Program{Name: "fused", Code: []isa.Instr{
		isa.MovI(1, 100),
		isa.MovI(2, 5),
		isa.Load(3, 1, 0), // ld + addi
		isa.AddI(4, 3, 1),
		isa.Load(5, 1, 8), // ld + add
		isa.ALU(isa.OpAdd, 6, 5, 4),
		isa.MovI(7, 9), // movi + st
		isa.Store(1, 16, 7),
		isa.Load(8, 1, 16), // ld + st
		isa.Store(1, 24, 8),
		isa.Store(1, 32, 6), // st + st
		isa.Store(1, 40, 4),
		isa.AddI(2, 2, -1), // addi + br
		isa.Branch(isa.CondNEZ, 2, 2),
		isa.Store(1, 48, 2), // st + br
		isa.Branch(isa.CondNEZ, 2, 2),
		isa.Halt(),
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return &builder.Unit{Prog: p}
}

// TestTapPlaneRebuildsStream pins the data tap end to end, interpreter
// and detector together: from the runs, accesses and snapshots a tap
// observer receives, the stream's addresses, loads, stores and
// register snapshots must come out exactly as the reference
// interpreter's full plane has them, at every batch size (small ones
// end tap batches at full buffers) and with a periodic flush that cuts
// runs in the middle of straight-line code: on every workload, on
// builder.Random programs, and on a loop of every fused pair at every
// budget that cuts it.
func TestTapPlaneRebuildsStream(t *testing.T) {
	for _, bm := range workload.All() {
		u, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		checkTap(t, u, 20_000)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		u, err := builder.Random(seed, builder.RandomOpt{})
		if err != nil {
			t.Fatal(err)
		}
		checkTap(t, u, 20_000)
	}
	u := fusedLoop(t)
	for budget := uint64(1); budget <= 80; budget++ {
		checkTap(t, u, budget)
	}
}

// TestTapObserverRefusesFullPlane pins that a detector with a tap
// observer panics, with a message that names the tap, when it is fed
// the full event plane: the full plane carries no tap, and running on
// without it would compute wrong numbers.
func TestTapObserverRefusesFullPlane(t *testing.T) {
	det := loopdet.New(loopdet.Config{Capacity: 16})
	det.AddObserver(&tapReplay{})
	if got := trace.PlanesOf(det); got != trace.PlaneCtl|trace.PlaneTap {
		t.Fatalf("planes %v, want the control plane and the tap", got)
	}
	in := isa.Nop()
	for name, feed := range map[string]func(){
		"batch":   func() { det.ConsumeBatch([]trace.Event{{Instr: &in}}) },
		"event":   func() { det.Consume(&trace.Event{Instr: &in}) },
		"control": func() { det.ConsumeCtlBatch(nil, 0, 1) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "tap") {
					t.Errorf("%s delivery: panic %q, want one that names the data tap", name, msg)
				}
			}()
			feed()
		}()
	}
}
