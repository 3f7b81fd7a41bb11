// Differential fuzzing of the interpreter core: arbitrary (bounded)
// programs must execute identically on the predecoded+fused fast path
// and the reference two-level interpreter — same event stream, same
// machine state, same error — any stream the fast path emits must
// survive a trace-archive record/replay round trip event for event, its
// control plane must replay from its branch outcomes, and the
// control-plane consumers must compute the same results however
// the stream is cut into batches and on either event plane, and the
// Figure-8 data collector must match its per-instruction reference.
package dynloop_test

import (
	"reflect"
	"testing"

	"dynloop/internal/branchpred"
	"dynloop/internal/builder"
	"dynloop/internal/datapred"
	"dynloop/internal/datapred/datapredtest"
	"dynloop/internal/interp"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
	"dynloop/internal/loopstats"
	"dynloop/internal/program"
	"dynloop/internal/spec"
	"dynloop/internal/trace"
	"dynloop/internal/tracefile"
	"dynloop/internal/workload"
)

// fuzzProgram decodes fuzz bytes into an in-range program: registers
// and sequence IDs are taken mod their file sizes and control targets
// mod the final code length, so the only machine checks reachable are
// the ones both interpreter paths must agree on (call depth, ret on an
// empty stack, running off the end). A trailing halt bounds the common
// case; a budget cap in the caller bounds the loops.
func fuzzProgram(data []byte) *program.Program {
	const maxLen = 96
	var code []isa.Instr
	for i := 0; i+2 < len(data) && len(code) < maxLen; i += 3 {
		sel, a, b := data[i], data[i+1], data[i+2]
		rd := isa.Reg(a % isa.NumRegs)
		rs := isa.Reg(b % isa.NumRegs)
		// Immediates sweep the codec's width classes: a signed byte
		// shifted by 0..56 bits.
		imm := int64(int8(b)) << (uint(a>>2) % 57)
		switch sel % 13 {
		case 0:
			ops := []isa.ALUOp{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd,
				isa.OpOr, isa.OpXor, isa.OpSlt, isa.OpMod}
			code = append(code, isa.ALU(ops[a%8], rd, rs, isa.Reg(a%isa.NumRegs)))
		case 1:
			code = append(code, isa.AddI(rd, rs, imm))
		case 2:
			code = append(code, isa.MovI(rd, imm))
		case 3:
			code = append(code, isa.Mov(rd, rs))
		case 4:
			code = append(code, isa.Load(rd, rs, int64(a%64)*8))
		case 5:
			code = append(code, isa.Store(rd, int64(a%64)*8, rs))
		case 6:
			conds := []isa.Cond{isa.CondEQZ, isa.CondNEZ, isa.CondLTZ,
				isa.CondGEZ, isa.CondGTZ, isa.CondLEZ}
			code = append(code, isa.Branch(conds[a%6], rs, isa.Addr(b))) // target fixed below
		case 7:
			code = append(code, isa.Jump(isa.Addr(b)))
		case 8:
			code = append(code, isa.Call(isa.Addr(b)))
		case 9:
			code = append(code, isa.Ret())
		case 10:
			code = append(code, isa.Seq(rd, int64(a%4)))
		case 11:
			code = append(code, isa.Nop())
		case 12:
			code = append(code, isa.Halt())
		}
	}
	code = append(code, isa.Halt())
	n := isa.Addr(len(code))
	for i := range code {
		if code[i].Kind.IsControl() && code[i].Kind != isa.KindRet {
			code[i].Target %= n
		}
	}
	return &program.Program{Name: "fuzz", Code: code}
}

// ctlCapture is a control-plane-only sink: it records the transfer
// events and the instructions the batches cover, and panics if the
// producer falls back to full-Event delivery, so a test passing proves
// the run actually took the ctl loop.
type ctlCapture struct {
	events  []trace.CtlEvent
	covered uint64
}

func (c *ctlCapture) ConsumeBatch([]trace.Event) {
	panic("ctlCapture: full-plane batch delivered to a ctl-only sink")
}

func (c *ctlCapture) ConsumeCtlBatch(evs []trace.CtlEvent, first, n uint64) {
	if first != c.covered || n == 0 {
		panic("ctlCapture: batches do not tile the stream")
	}
	c.events = append(c.events, evs...)
	c.covered += n
}

// planeOutcome is everything the control-plane consumers compute from
// one stream.
type planeOutcome struct {
	N      uint64
	Err    string
	Hash   uint64
	Det    loopdet.Stats
	Loops  loopstats.Summary
	Spec   spec.Metrics
	Branch []branchpred.Result
}

// runPlanes executes a fresh CPU at the given batch size into every
// control-plane consumer the paper grids use — a detector carrying the
// Table-1 collector and a 4-TU STR(3) speculation engine, the
// branch-predictor suite and the stream hash — all behind one
// broadcast, forced onto the full event plane when full is set. ctlRun
// reports whether the interpreter served the run on the control plane.
func runPlanes(newCPU func() *interp.CPU, budget uint64, batch int, full bool) (out planeOutcome, ctlRun bool) {
	det := loopdet.New(loopdet.Config{Capacity: 16})
	ls := loopstats.NewCollector()
	e := spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STRn(3)})
	det.AddObserver(ls)
	det.AddObserver(e)
	bp := branchpred.DefaultSuite()
	h := trace.NewHash()
	b := trace.NewBroadcast(0, det, bp, trace.AsPass(h))
	var sink trace.BatchConsumer = b
	if full {
		sink = trace.ForceFullPlane(b)
	}
	cpu := newCPU()
	cpu.SetBatchSize(batch)
	ctl0, _ := interp.PlaneRuns()
	b.Init()
	n, err := cpu.Run(budget, sink)
	b.Finalize()
	ctl1, _ := interp.PlaneRuns()
	out = planeOutcome{N: n, Hash: h.Sum, Det: det.Stats(), Loops: ls.Summary(),
		Spec: e.Metrics(), Branch: bp.Results()}
	if err != nil {
		out.Err = err.Error()
	}
	return out, ctl1 != ctl0
}

// checkBatchCuts pins batch-cut invariance: the control plane cuts
// batches at transfer-buffer boundaries, the full plane at instruction
// boundaries, so the consumers' results must not depend on either.
// Every batch size on both planes must reproduce the per-instruction
// full-plane outcome, and the unforced runs must take the control plane.
func checkBatchCuts(t *testing.T, name string, newCPU func() *interp.CPU, budget uint64) {
	t.Helper()
	ref, ctlRun := runPlanes(newCPU, budget, 1, true)
	if ctlRun {
		t.Fatalf("%s: forced full-plane run took the control plane", name)
	}
	for _, batch := range []int{1, 3, 4096} {
		for _, full := range []bool{false, true} {
			got, ctlRun := runPlanes(newCPU, budget, batch, full)
			if ctlRun == full {
				t.Fatalf("%s batch=%d full=%v: control plane used = %v", name, batch, full, ctlRun)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s batch=%d full=%v: outcome diverged\ngot:  %+v\nwant: %+v", name, batch, full, got, ref)
			}
		}
	}
}

// TestBatchCutInvariance runs checkBatchCuts over every workload and
// over builder.Random programs.
func TestBatchCutInvariance(t *testing.T) {
	budget := uint64(40_000)
	if testing.Short() {
		budget = 5_000
	}
	for _, bm := range workload.All() {
		u, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		checkBatchCuts(t, bm.Name, u.NewCPU, budget)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		u, err := builder.Random(seed, builder.RandomOpt{})
		if err != nil {
			t.Fatalf("random seed %d: %v", seed, err)
		}
		checkBatchCuts(t, u.Prog.Name, u.NewCPU, budget)
	}
}

func newFuzzCPU(p *program.Program, reference bool) *interp.CPU {
	c := interp.New(p)
	c.SetReference(reference)
	bindFuzzSeqs(c)
	return c
}

func bindFuzzSeqs(c *interp.CPU) {
	for id := int64(0); id < 4; id++ {
		c.BindSeq(id, interp.Counter(id*7+1, id+1))
	}
}

func FuzzPredecode(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{2, 1, 5, 1, 2, 255, 6, 0, 0}, uint8(1)) // movi, addi, branch
	f.Add([]byte{2, 3, 16, 5, 3, 1, 4, 3, 1}, uint8(3))  // movi, store, load
	f.Add([]byte{8, 0, 4, 12, 0, 0, 9, 0, 0}, uint8(2))  // call over a halt, ret
	f.Add([]byte{10, 1, 0, 10, 2, 1, 7, 0, 0}, uint8(7)) // seqs and a jump
	f.Fuzz(func(t *testing.T, data []byte, bsel uint8) {
		p := fuzzProgram(data)
		batch := []int{0, 1, 3, 256}[bsel%4]
		const budget = 2000

		fused := newFuzzCPU(p, false)
		fused.SetBatchSize(batch)
		frec := &trace.Recorder{}
		fn, ferr := fused.Run(budget, frec)

		ref := newFuzzCPU(p, true)
		ref.SetBatchSize(batch)
		rrec := &trace.Recorder{}
		rn, rerr := ref.Run(budget, rrec)

		if (ferr == nil) != (rerr == nil) || (ferr != nil && ferr.Error() != rerr.Error()) {
			t.Fatalf("errors diverged: fused %v, reference %v", ferr, rerr)
		}
		if fn != rn {
			t.Fatalf("retired %d fused vs %d reference", fn, rn)
		}
		if !reflect.DeepEqual(frec.Events, rrec.Events) {
			t.Fatalf("streams diverged after %d events", fn)
		}
		if fused.PC() != ref.PC() || fused.Halted() != ref.Halted() {
			t.Fatalf("machine state diverged: pc %d/%d halted %v/%v",
				fused.PC(), ref.PC(), fused.Halted(), ref.Halted())
		}

		// Control-plane leg: a ctl-only sink runs the dedicated ctl loop,
		// which must retire exactly the full stream's branch/jump/ret
		// events, cover every retired instruction, and leave identical
		// machine state and error behaviour.
		ctlCPU := newFuzzCPU(p, false)
		ctlCPU.SetBatchSize(batch)
		crec := &ctlCapture{}
		cn, cerr := ctlCPU.Run(budget, crec)
		if (cerr == nil) != (ferr == nil) || (cerr != nil && cerr.Error() != ferr.Error()) {
			t.Fatalf("ctl errors diverged: ctl %v, full %v", cerr, ferr)
		}
		if cn != fn || ctlCPU.PC() != fused.PC() || ctlCPU.Halted() != fused.Halted() {
			t.Fatalf("ctl machine diverged: n %d/%d pc %d/%d halted %v/%v",
				cn, fn, ctlCPU.PC(), fused.PC(), ctlCPU.Halted(), fused.Halted())
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if ctlCPU.Reg(r) != fused.Reg(r) {
				t.Fatalf("ctl r%d = %d, full %d", r, ctlCPU.Reg(r), fused.Reg(r))
			}
		}
		var facet []trace.CtlEvent
		for _, ev := range frec.Events {
			if trace.IsTransfer(ev.Instr.Kind) {
				facet = append(facet, trace.CtlEvent{Index: ev.Index, PC: ev.PC, Instr: ev.Instr,
					Taken: ev.Taken, Target: ev.Target})
			}
		}
		if crec.covered != fn {
			t.Fatalf("ctl batches cover %d instructions, run retired %d", crec.covered, fn)
		}
		if len(crec.events) != len(facet) {
			t.Fatalf("ctl stream has %d events, full facet %d", len(crec.events), len(facet))
		}
		for i := range facet {
			if crec.events[i] != facet[i] {
				t.Fatalf("ctl event %d = %+v, full facet %+v", i, crec.events[i], facet[i])
			}
		}

		// Control-plane replay leg: a clean run's branch outcomes must
		// replay to the ctl stream the interpreter delivered, at the full
		// budget, at a prefix of it and, when the program halted, at
		// budget 0.
		if cerr == nil {
			code := interp.Predecode(p)
			rcpu := code.NewCPU()
			bindFuzzSeqs(rcpu)
			recorder := &interp.CtlRecorder{}
			b := trace.NewBroadcast(0, recorder)
			b.Init()
			if _, err := rcpu.Run(budget, b); err != nil {
				t.Fatal(err)
			}
			b.Finalize()
			r := recorder.Recording(code, rcpu.Halted())
			budgets := []uint64{budget, cn/2 + 1}
			if rcpu.Halted() {
				budgets = append(budgets, 0)
			}
			for _, bud := range budgets {
				got := &ctlCapture{}
				n, halted, err := r.Replay(bud, batch, got)
				want, wantHalted := cn, ctlCPU.Halted()
				if bud != 0 && bud < cn {
					want, wantHalted = bud, false
				}
				if err != nil || n != want || halted != wantHalted || got.covered != want {
					t.Fatalf("ctl replay at budget %d: n=%d halted=%v covered=%d err=%v, want %d/%v",
						bud, n, halted, got.covered, err, want, wantHalted)
				}
				var wantEvs []trace.CtlEvent
				for _, ev := range crec.events {
					if ev.Index < want {
						wantEvs = append(wantEvs, ev)
					}
				}
				if !reflect.DeepEqual(got.events, wantEvs) {
					t.Fatalf("ctl replay at budget %d: %d events, interpreted %d", bud, len(got.events), len(wantEvs))
				}
			}
		}

		// Batch-cut leg: the paper's control-plane consumers see this
		// program identically at every batch size, on both planes.
		checkBatchCuts(t, "fuzz", func() *interp.CPU { return newFuzzCPU(p, false) }, budget)

		// Figure-8 leg: the run-granularity data collector must compute
		// the per-instruction reference's Summary at every delivery and
		// CLS configuration, also under caps small enough to overflow.
		for _, cfg := range []datapred.Config{{}, {MaxMemPerLoop: 4, MaxPathsPerLoop: 2}} {
			if _, err := datapredtest.Diff(func() *interp.CPU { return newFuzzCPU(p, false) }, budget, cfg); err != nil {
				t.Fatalf("datapred %+v: %v", cfg, err)
			}
		}

		// Replay leg: a clean run's stream must round-trip through the
		// archive codec byte for byte.
		if ferr != nil {
			return
		}
		a, err := tracefile.OpenArchive(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := a.BeginRecord("fuzz", 1, p)
		if err != nil {
			t.Fatal(err)
		}
		rec.ConsumeBatch(frec.Events)
		if err := rec.Commit(fused.Halted()); err != nil {
			t.Fatal(err)
		}
		r, ok := a.Lookup("fuzz", 1)
		if !ok {
			t.Fatal("recording not installed")
		}
		prec := &trace.Recorder{}
		gotN, gotHalted, err := r.Replay(0, nil, prec)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if gotN != fn || gotHalted != fused.Halted() {
			t.Fatalf("replay n=%d halted=%v, want %d/%v", gotN, gotHalted, fn, fused.Halted())
		}
		if !reflect.DeepEqual(prec.Events, frec.Events) {
			t.Fatalf("replayed stream differs from live stream")
		}
	})
}
