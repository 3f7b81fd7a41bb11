package interp_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/interp"
	"dynloop/internal/isa"
	"dynloop/internal/program"
	"dynloop/internal/trace"
	"dynloop/internal/workload"
)

// ctlBatch is one delivered control-plane batch.
type ctlBatch struct {
	First, N uint64
	Evs      []trace.CtlEvent
}

// batchLog is a control-only sink that keeps every batch it is handed.
type batchLog struct{ batches []ctlBatch }

func (l *batchLog) ConsumeBatch([]trace.Event) {
	panic("full-plane batch delivered to a control-only sink")
}

func (l *batchLog) ConsumeCtlBatch(evs []trace.CtlEvent, first, n uint64) {
	l.batches = append(l.batches, ctlBatch{first, n, slices.Clone(evs)})
}

// record interprets a fresh CPU of u up to budget with a CtlRecorder
// attached, on the full plane when full is set, and returns the
// recording.
func record(t *testing.T, u *builder.Unit, budget uint64, full bool) *interp.CtlRecording {
	t.Helper()
	rec := &interp.CtlRecorder{}
	b := trace.NewBroadcast(0, rec)
	var sink trace.BatchConsumer = b
	if full {
		sink = trace.ForceFullPlane(b)
	}
	b.Init()
	cpu := u.NewCPU()
	if _, err := cpu.Run(budget, sink); err != nil {
		t.Fatal(err)
	}
	b.Finalize()
	r := rec.Recording(u.Code(), cpu.Halted())
	if r == nil {
		t.Fatal("a completed traversal produced no recording")
	}
	return r
}

// interpret runs a fresh CPU of u on the control plane.
func interpret(t *testing.T, u *builder.Unit, budget uint64, batch int) (*batchLog, uint64, bool) {
	t.Helper()
	cpu := u.NewCPU()
	cpu.SetBatchSize(batch)
	log := &batchLog{}
	n, err := cpu.Run(budget, log)
	if err != nil {
		t.Fatal(err)
	}
	return log, n, cpu.Halted()
}

// checkReplay requires the replay of r at budget and batch to deliver
// the batches a fresh interpretation delivers, field for field, with
// the same instruction count and halt.
func checkReplay(t *testing.T, name string, u *builder.Unit, r *interp.CtlRecording, budget uint64, batch int) {
	t.Helper()
	want, wn, wh := interpret(t, u, budget, batch)
	got := &batchLog{}
	n, halted, err := r.Replay(budget, batch, got)
	if err != nil {
		t.Fatalf("%s budget=%d batch=%d: %v", name, budget, batch, err)
	}
	if n != wn || halted != wh {
		t.Fatalf("%s budget=%d batch=%d: replay covered %d (halted %v), interpretation %d (halted %v)",
			name, budget, batch, n, halted, wn, wh)
	}
	if reflect.DeepEqual(got.batches, want.batches) {
		return
	}
	for i := range min(len(got.batches), len(want.batches)) {
		if g, w := got.batches[i], want.batches[i]; !reflect.DeepEqual(g, w) {
			t.Fatalf("%s budget=%d batch=%d: batch %d differs\nreplay [%d,+%d) %+v\ninterp [%d,+%d) %+v",
				name, budget, batch, i, g.First, g.N, g.Evs, w.First, w.N, w.Evs)
		}
	}
	t.Fatalf("%s budget=%d batch=%d: %d batches replayed, %d interpreted",
		name, budget, batch, len(got.batches), len(want.batches))
}

// fusedCuts returns budgets, within u's first limit instructions, that
// stop after the first constituent of a fused micro-op: one whose
// second constituent is a branch and one whose is not, where the
// stream has them.
func fusedCuts(t *testing.T, u *builder.Unit, limit uint64) []uint64 {
	t.Helper()
	rec := &trace.Recorder{}
	if _, err := u.NewCPU().Run(limit, rec); err != nil {
		t.Fatal(err)
	}
	var cuts []uint64
	var br, plain bool
	for i := 0; i+1 < len(rec.Events); i++ {
		if !interp.FusedFirst(u.Code(), rec.Events[i].PC) {
			continue
		}
		isBr := rec.Events[i+1].Instr.Kind == isa.KindBranch
		if isBr && !br || !isBr && !plain {
			cuts = append(cuts, uint64(i+1))
			br, plain = br || isBr, plain || !isBr
		}
	}
	return cuts
}

// replayStreams is what the replay suites run on: every workload at
// seeds 1 and 1009 up to budget, and builder.Random programs to their
// halt (budget 0).
type replayStream struct {
	name   string
	u      *builder.Unit
	budget uint64
}

func replayStreams(t *testing.T, budget uint64) []replayStream {
	t.Helper()
	var out []replayStream
	for _, seed := range []uint64{1, 1009} {
		for _, bm := range workload.All() {
			u, err := bm.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, replayStream{fmt.Sprintf("%s/%d", bm.Name, seed), u, budget})
		}
	}
	for seed := uint64(1); seed <= 24; seed++ {
		u, err := builder.Random(seed, builder.RandomOpt{})
		if err != nil {
			t.Fatalf("random seed %d: %v", seed, err)
		}
		out = append(out, replayStream{fmt.Sprintf("random/%d", seed), u, 0})
	}
	return out
}

// TestCtlReplayMatchesInterpreter is the replay's differential: on every
// workload at seeds 1 and 1009 and on random programs run to their
// halt, replaying the recording delivers exactly the batches the
// control-plane interpreter delivers — at batch sizes 1, 3 and 1024, at
// the recorded budget, at prefixes of it (served from the longer
// recording), at budgets that stop inside a fused micro-op, and at
// budget 0 on the halting programs. A recording made from full-plane
// batches replays the same.
func TestCtlReplayMatchesInterpreter(t *testing.T) {
	budget := uint64(60_000)
	if testing.Short() {
		budget = 10_000
	}
	for _, s := range replayStreams(t, budget) {
		r := record(t, s.u, s.budget, false)
		if s.budget == 0 && !r.Halted() {
			t.Fatalf("%s: recorded to budget 0 without halting", s.name)
		}
		all := r.Instructions()
		budgets := []uint64{s.budget, 1, all / 3, all / 2, all - 1, all}
		budgets = append(budgets, fusedCuts(t, s.u, min(all, 5000))...)
		for _, batch := range []int{1, 3, 1024} {
			for _, b := range budgets {
				if b == 0 && !r.Halted() {
					continue
				}
				if !r.CanServe(b) {
					t.Fatalf("%s: a recording of %d instructions cannot serve budget %d", s.name, all, b)
				}
				checkReplay(t, s.name, s.u, r, b, batch)
			}
		}
		full := record(t, s.u, s.budget, true)
		if full.Instructions() != all || full.Halted() != r.Halted() {
			t.Fatalf("%s: full-plane recording covers %d (halted %v), control-plane %d (halted %v)",
				s.name, full.Instructions(), full.Halted(), all, r.Halted())
		}
		checkReplay(t, s.name+" full-plane recording", s.u, full, s.budget, 1024)
	}
}

// TestCtlRecordingCanServe pins the serving rule: a recording that
// stopped at its budget serves exactly the non-zero budgets up to it,
// and replaying it at a larger budget stops where the recording does; a
// halted recording serves every budget, 0 included.
func TestCtlRecordingCanServe(t *testing.T) {
	bm, err := workload.Lookup("swim")
	if err != nil {
		t.Fatal(err)
	}
	u, err := bm.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20_000
	r := record(t, u, budget, false)
	if r.Halted() || r.Instructions() != budget {
		t.Fatalf("recording covers %d (halted %v), want %d", r.Instructions(), r.Halted(), budget)
	}
	for b, want := range map[uint64]bool{0: false, 1: true, budget: true, budget + 1: false} {
		if got := r.CanServe(b); got != want {
			t.Errorf("CanServe(%d) = %v, want %v", b, got, want)
		}
	}
	if n, halted, err := r.Replay(budget+1, 0, trace.NewHash()); err != nil || n != budget || halted {
		t.Errorf("replay past the recording: n=%d halted=%v err=%v, want %d", n, halted, err, budget)
	}
	short := record(t, u, budget/2, false)
	if !r.Covers(short) || short.Covers(r) {
		t.Errorf("Covers: long over short %v, short over long %v", r.Covers(short), short.Covers(r))
	}

	ru, err := builder.Random(3, builder.RandomOpt{})
	if err != nil {
		t.Fatal(err)
	}
	h := record(t, ru, 0, false)
	if !h.Halted() || !h.CanServe(0) || !h.CanServe(1<<40) || !h.Covers(r) || r.Covers(h) {
		t.Errorf("halted recording: halted %v, CanServe(0) %v, CanServe(2^40) %v",
			h.Halted(), h.CanServe(0), h.CanServe(1<<40))
	}
}

// TestCtlRecorderYieldsNothing: a traversal that ends in a machine
// error, or whose bits outgrow MaxCtlRecordingBytes, yields no
// recording.
func TestCtlRecorderYieldsNothing(t *testing.T) {
	for _, p := range []*program.Program{
		{Name: "pc", Code: []isa.Instr{isa.Branch(isa.CondEQZ, 0, 2), isa.Nop()}},
		{Name: "ret", Code: []isa.Instr{isa.Ret()}},
		{Name: "depth", Code: []isa.Instr{isa.Call(0)}},
	} {
		rec := &interp.CtlRecorder{}
		b := trace.NewBroadcast(0, rec)
		b.Init()
		code := interp.Predecode(p)
		_, err := code.NewCPU().Run(0, b)
		if !errors.Is(err, interp.ErrPC) && !errors.Is(err, interp.ErrRetEmpty) && !errors.Is(err, interp.ErrCallDepth) {
			t.Fatalf("%s: err = %v, want a machine error", p.Name, err)
		}
		if r := rec.Recording(code, false); r != nil {
			t.Errorf("%s: an aborted traversal produced a recording", p.Name)
		}
	}

	br := isa.Branch(isa.CondEQZ, 0, 0)
	evs := make([]trace.CtlEvent, 1024)
	for i := range evs {
		evs[i] = trace.CtlEvent{Instr: &br, Taken: i%2 == 0}
	}
	rec := &interp.CtlRecorder{}
	for n := 0; n <= interp.MaxCtlRecordingBytes*8/len(evs); n++ {
		rec.ConsumeCtlBatch(evs, uint64(n*len(evs)), uint64(len(evs)))
	}
	rec.Finalize()
	if r := rec.Recording(interp.Predecode(&program.Program{Code: []isa.Instr{br}}), false); r != nil {
		t.Errorf("a recording of %d instructions outgrew %d bytes and was kept", r.Instructions(), interp.MaxCtlRecordingBytes)
	}
}

// TestCtlReplayReturnStack pins calls and returns on a hand-written
// program: nested calls, a return to each call's successor, a branch
// with an unknown condition (never taken) and a halt, at every budget.
func TestCtlReplayReturnStack(t *testing.T) {
	never := isa.Branch(isa.CondEQZ, 0, 0)
	never.Cond = 0x7f
	p := &program.Program{Name: "calls", Code: []isa.Instr{
		isa.MovI(1, 3),                // 0
		isa.Call(7),                   // 1
		isa.AddI(1, 1, -1),            // 2
		never,                         // 3
		isa.Branch(isa.CondNEZ, 1, 1), // 4
		isa.Halt(),                    // 5
		isa.Nop(),                     // 6
		isa.AddI(2, 2, 1),             // 7: f
		isa.Call(10),                  // 8
		isa.Ret(),                     // 9
		isa.AddI(3, 3, 1),             // 10: g
		isa.AddI(3, 3, 1),             // 11
		isa.Ret(),                     // 12
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	u := &builder.Unit{Prog: p}
	r := record(t, u, 0, false)
	for b := uint64(0); b <= r.Instructions()+1; b++ {
		for _, batch := range []int{1, 3, 1024} {
			checkReplay(t, "calls", u, r, b, batch)
		}
	}
}

// TestCtlReplayZeroAllocs pins that a warm replay of every workload
// allocates nothing: the batch buffer and return stack are pooled and
// the straight-line table is built once per program.
func TestCtlReplayZeroAllocs(t *testing.T) {
	h := trace.NewHash()
	for _, bm := range workload.All() {
		u, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		r := record(t, u, 50_000, false)
		replay := func() {
			if _, _, err := r.Replay(0, 0, h); err != nil {
				t.Fatal(err)
			}
		}
		replay() // build the straight-line table and warm the pool
		// Under the race detector pooled buffers are dropped at random,
		// so only non-race builds (bench_smoke.sh gate 3) pin the count.
		if avg := testing.AllocsPerRun(5, replay); avg != 0 && !raceEnabled {
			t.Errorf("%s: a warm replay allocates %v times, want 0", bm.Name, avg)
		}
	}
}
