package tracefile

import (
	"reflect"
	"testing"

	"dynloop/internal/trace"
)

// ctlSink accepts only control-plane delivery; ConsumeBatch panicking
// proves Replay dispatched to the header-plane decoder. It keeps every
// batch's span and event count so producers' cuts can be compared.
type ctlSink struct {
	events []trace.CtlEvent
	spans  [][3]uint64 // first, covered, events per batch
}

func (s *ctlSink) ConsumeBatch([]trace.Event) {
	panic("full-plane delivery to a control-only sink")
}

func (s *ctlSink) ConsumeCtlBatch(evs []trace.CtlEvent, first, n uint64) {
	s.events = append(s.events, evs...)
	s.spans = append(s.spans, [3]uint64{first, n, uint64(len(evs))})
}

// covered sums the instructions the batches cover, checking that they
// tile the stream from index 0 without gaps or empty batches.
func (s *ctlSink) covered(t *testing.T) uint64 {
	t.Helper()
	var next uint64
	for i, sp := range s.spans {
		if sp[0] != next || sp[1] == 0 {
			t.Fatalf("batch %d covers [%d, +%d), want a non-empty span from %d", i, sp[0], sp[1], next)
		}
		next += sp[1]
	}
	return next
}

// TestReplayCtlEventIdentical: the control-plane replay path must yield
// exactly the full decode filtered to branch/jump/ret — every field of
// every event — with covered counts adding up to the full stream's
// length, over a multi-block recording and at a budget that cuts
// mid-block; and its batches must be cut exactly where the
// interpreter's control plane cuts them. This is the lazy-materialization
// differential: decodeEventsCtl walks only the header plane, advancing
// the value-plane cursor arithmetically, and any drift in that cursor
// corrupts the PC chain this test checks event by event.
func TestReplayCtlEventIdentical(t *testing.T) {
	u := buildArchUnit(t, "ctlid")
	a, err := OpenArchive(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.BeginRecord("ctlid", 1, u.Prog)
	if err != nil {
		t.Fatal(err)
	}
	cpu := u.NewCPU()
	if _, err := cpu.Run(120_000, rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Commit(cpu.Halted()); err != nil {
		t.Fatal(err)
	}
	r, ok := a.Lookup("ctlid", 1)
	if !ok {
		t.Fatal("recording not installed")
	}
	if len(r.blocks) < 2 {
		t.Fatalf("want a multi-block recording, got %d block(s)", len(r.blocks))
	}

	full := &trace.Recorder{}
	if _, _, err := r.Replay(0, nil, full); err != nil {
		t.Fatal(err)
	}
	var want []trace.CtlEvent
	for _, ev := range full.Events {
		if trace.IsTransfer(ev.Instr.Kind) {
			want = append(want, trace.CtlEvent{Index: ev.Index, PC: ev.PC, Instr: ev.Instr,
				Taken: ev.Taken, Target: ev.Target})
		}
	}

	cs := &ctlSink{}
	n, halted, err := r.Replay(0, nil, cs)
	if err != nil || n != uint64(len(full.Events)) || halted != r.halted {
		t.Fatalf("ctl replay: n=%d halted=%v err=%v", n, halted, err)
	}
	if got := cs.covered(t); got != n {
		t.Fatalf("ctl batches cover %d instructions, replay retired %d", got, n)
	}
	if len(cs.events) != len(want) {
		t.Fatalf("ctl replay decoded %d events, want %d", len(cs.events), len(want))
	}
	for i := range want {
		if cs.events[i] != want[i] {
			t.Fatalf("event %d differs:\nctl  %+v\nfull %+v", i, cs.events[i], want[i])
		}
	}

	// The interpreter's control plane cuts the same stream into the same
	// batches.
	live := &ctlSink{}
	if _, err := u.NewCPU().Run(120_000, live); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.spans, cs.spans) {
		t.Fatalf("replay batches differ from interpreted ones: %d vs %d batches", len(cs.spans), len(live.spans))
	}

	// A budget cutting into the middle of a block yields the exact prefix.
	cut := uint64(len(full.Events))/2 + 13
	ps := &ctlSink{}
	if n, _, err := r.Replay(cut, nil, ps); err != nil || n != cut {
		t.Fatalf("prefix ctl replay: n=%d err=%v", n, err)
	}
	if got := ps.covered(t); got != cut {
		t.Fatalf("prefix ctl batches cover %d instructions, want %d", got, cut)
	}
	var wantPrefix []trace.CtlEvent
	for _, ev := range want {
		if ev.Index < cut {
			wantPrefix = append(wantPrefix, ev)
		}
	}
	if !reflect.DeepEqual(ps.events, wantPrefix) {
		t.Fatal("prefix ctl replay differs from full-decode prefix")
	}

	// ForceFullPlane pushes the same consumer stack back onto the full
	// decoder; the hash must not care which plane delivered.
	h1, h2 := trace.NewHash(), trace.NewHash()
	if _, _, err := r.Replay(0, nil, h1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Replay(0, nil, trace.ForceFullPlane(h2)); err != nil {
		t.Fatal(err)
	}
	if h1.Sum != h2.Sum {
		t.Fatalf("ctl hash %x != forced-full hash %x", h1.Sum, h2.Sum)
	}
}

// TestReplayCtlZeroAllocs pins BOTH replay planes at zero allocations
// per run once the decoder is warm.
func TestReplayCtlZeroAllocs(t *testing.T) {
	dir := t.TempDir()
	a, _, _, _ := recordInto(t, dir, "arch", 0)
	rec, ok := a.Lookup("arch", 1)
	if !ok {
		t.Fatal("recording not found")
	}
	d := &Decoder{}
	h := trace.NewHash()
	fh := trace.ForceFullPlane(trace.NewHash())
	for _, leg := range []struct {
		name string
		run  func()
	}{
		{"ctl", func() {
			if _, _, err := rec.Replay(0, d, h); err != nil {
				t.Fatal(err)
			}
		}},
		{"full", func() {
			if _, _, err := rec.Replay(0, d, fh); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		leg.run() // warm the decoder's plane buffers
		if allocs := testing.AllocsPerRun(10, leg.run); allocs != 0 {
			t.Fatalf("%s replay hot loop allocates %v per run, want 0", leg.name, allocs)
		}
	}
}
