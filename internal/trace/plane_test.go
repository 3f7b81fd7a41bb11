package trace

import (
	"testing"

	"dynloop/internal/isa"
)

// ctlPass is a segPass that additionally accepts control-plane batches,
// recording them separately so tests can tell which plane delivered.
type ctlPass struct {
	segPass
	ctlBatches int
	ctlSum     uint64
	ctlFirst   []uint64
	ctlCovered uint64
}

func (p *ctlPass) ConsumeCtlBatch(evs []CtlEvent, first, n uint64) {
	p.ctlBatches++
	p.ctlFirst = append(p.ctlFirst, first)
	p.ctlCovered += n
	for i := range evs {
		p.ctlSum += uint64(evs[i].PC)
	}
}

// declarerPass overrides the structural default with an explicit answer.
type declarerPass struct {
	ctlPass
	planes Planes
}

func (p *declarerPass) NeedPlanes() Planes { return p.planes }

// TestPlanesOf pins the negotiation rules: a declarer answers for itself
// (with 0 normalised to PlaneCtl), an undeclared CtlBatchConsumer is
// control-only, and anything else — including a Counter, whose per-kind
// tallies need every instruction — needs both facets.
func TestPlanesOf(t *testing.T) {
	both := PlaneCtl | PlaneData
	cases := []struct {
		name string
		c    any
		want Planes
	}{
		{"plain", &lifecyclePass{}, both},
		{"segmented", &segPass{}, both},
		{"ctl-capable", &ctlPass{}, PlaneCtl},
		{"counter", &Counter{}, both},
		{"hash", NewHash(), PlaneCtl},
		{"declares-both", &declarerPass{planes: both}, both},
		{"declares-ctl", &declarerPass{planes: PlaneCtl}, PlaneCtl},
		{"declares-zero", &declarerPass{planes: 0}, PlaneCtl},
		{"forced-full", ForceFullPlane(&ctlPass{}), both},
		{"forced-full-plain", ForceFullPlane(&lifecyclePass{}), both},
	}
	for _, tc := range cases {
		if got := PlanesOf(tc.c); got != tc.want {
			t.Errorf("PlanesOf(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestForceFullPlaneKeepsSegmented: the wrapper hides the control plane
// but must not cost the segmented fast path.
func TestForceFullPlaneKeepsSegmented(t *testing.T) {
	in := isa.Instr{Kind: isa.KindNop}
	evs := []Event{{PC: 1, Instr: &in}, {PC: 2, Instr: &in}}

	sp := &ctlPass{}
	w := ForceFullPlane(sp)
	if _, ok := w.(CtlBatchConsumer); ok {
		t.Fatal("ForceFullPlane left ConsumeCtlBatch visible")
	}
	sw, ok := w.(SegmentedBatchConsumer)
	if !ok {
		t.Fatal("ForceFullPlane hid ConsumeBatchSegmented")
	}
	sw.ConsumeBatchSegmented(evs, []int32{0})
	if sp.segBatches != 1 || sp.ctlBatches != 0 || sp.sum != 3 {
		t.Fatalf("wrapper delivery: %+v", sp)
	}

	pp := &lifecyclePass{}
	wp := ForceFullPlane(pp)
	if _, ok := wp.(SegmentedBatchConsumer); ok {
		t.Fatal("plain wrapper invented ConsumeBatchSegmented")
	}
	wp.ConsumeBatch(evs)
	if pp.batches != 1 || pp.sum != 3 {
		t.Fatalf("plain wrapper delivery: %+v", pp)
	}
}

// TestAsPassKeepsCtlVisible: the adapters must keep both the
// control-plane method and the wrapped consumer's declared planes
// visible, without making non-ctl consumers look control-only.
func TestAsPassKeepsCtlVisible(t *testing.T) {
	in := isa.Instr{Kind: isa.KindBranch}
	cevs := []CtlEvent{{PC: 7, Instr: &in, Taken: true, Target: 3}}

	cp := &ctlPass{}
	p := AsPass(cp)
	if PlanesOf(p) != PlaneCtl {
		t.Fatalf("adapted ctl consumer planes = %v", PlanesOf(p))
	}
	p.(CtlBatchConsumer).ConsumeCtlBatch(cevs, 5, 3)
	if cp.ctlBatches != 1 || cp.ctlSum != 7 || cp.ctlCovered != 3 || cp.ctlFirst[0] != 5 {
		t.Fatalf("ctl delivery through adapter: %+v", cp)
	}
	if _, ok := p.(SegmentedBatchConsumer); !ok {
		t.Fatal("adapter hid ConsumeBatchSegmented")
	}

	// A Hash is ctl-capable but not segmentation-capable.
	h := NewHash()
	ph := AsPass(h)
	if PlanesOf(ph) != PlaneCtl {
		t.Fatalf("adapted Hash planes = %v", PlanesOf(ph))
	}
	if _, ok := ph.(SegmentedBatchConsumer); ok {
		t.Fatal("adapter invented ConsumeBatchSegmented")
	}
	ph.(CtlBatchConsumer).ConsumeCtlBatch(cevs, 5, 3)
	want := NewHash()
	want.ConsumeCtlBatch(cevs, 5, 3)
	if h.Sum != want.Sum {
		t.Fatalf("Hash through adapter: %#x, want %#x", h.Sum, want.Sum)
	}

	// A plain consumer must NOT gain ctl capability from the adapter.
	if _, ok := AsPass(&struct{ BatchConsumer }{}).(CtlBatchConsumer); ok {
		t.Fatal("plain adapter invented ConsumeCtlBatch")
	}

	// Forcing full planes downgrades an adapted ctl consumer to both.
	if got := PlanesOf(AsPass(ForceFullPlane(cp))); got != PlaneCtl|PlaneData {
		t.Fatalf("forced-full adapted planes = %v", got)
	}
}

// TestBroadcastPlaneNegotiation: the broadcast is control-only exactly
// when every pass is.
func TestBroadcastPlaneNegotiation(t *testing.T) {
	both := PlaneCtl | PlaneData
	if got := NewBroadcast(0, AsPass(&ctlPass{}), AsPass(NewHash())).NeedPlanes(); got != PlaneCtl {
		t.Fatalf("all-ctl broadcast planes = %v", got)
	}
	if got := NewBroadcast(0, AsPass(&ctlPass{}), AsPass(&Counter{})).NeedPlanes(); got != both {
		t.Fatalf("broadcast with a Counter planes = %v", got)
	}
	if got := NewBroadcast(0, AsPass(&ctlPass{}), &lifecyclePass{}).NeedPlanes(); got != both {
		t.Fatalf("mixed broadcast planes = %v", got)
	}
	if got := NewBroadcast(0).NeedPlanes(); got != PlaneCtl {
		t.Fatalf("empty broadcast planes = %v", got)
	}
	if got := (BatchTee{&ctlPass{}, NewHash()}).NeedPlanes(); got != PlaneCtl {
		t.Fatalf("all-ctl tee planes = %v", got)
	}
	if got := (BatchTee{NewHash(), &Recorder{}}).NeedPlanes(); got != both {
		t.Fatalf("mixed tee planes = %v", got)
	}
}

// TestBroadcastCtlDelivery: control-plane batches reach every pass with
// the producer's covered span, inline and sharded, and the sharded path
// is safe against the producer reusing its buffers (the batch barrier).
func TestBroadcastCtlDelivery(t *testing.T) {
	br := isa.Instr{Kind: isa.KindBranch}
	run := func(shards int) (uint64, uint64) {
		a, b := &ctlPass{}, &ctlPass{}
		bc := NewBroadcast(shards, AsPass(a), AsPass(b))
		if bc.NeedPlanes() != PlaneCtl {
			t.Fatalf("shards=%d: planes = %v", shards, bc.NeedPlanes())
		}
		bc.Init()
		buf := make([]CtlEvent, 32)
		pc := uint64(0)
		for epoch := 0; epoch < 50; epoch++ {
			for i := range buf {
				pc++
				buf[i] = CtlEvent{Index: uint64(epoch*100 + i), PC: isa.Addr(pc), Instr: &br, Taken: i%2 == 0}
			}
			// Every other batch carries no transfer event at all.
			bc.ConsumeCtlBatch(buf[:32*(epoch%2)], uint64(epoch*100), 100)
		}
		bc.Finalize()
		if a.ctlBatches != 50 || b.ctlBatches != 50 || a.batches != 0 || a.segBatches != 0 {
			t.Fatalf("shards=%d: a=%+v b=%+v", shards, a, b)
		}
		if len(a.ctlFirst) != 50 || a.ctlFirst[3] != 300 || a.ctlCovered != 5000 || b.ctlCovered != 5000 {
			t.Fatalf("shards=%d: covered spans %v... total %d", shards, a.ctlFirst[:4], a.ctlCovered)
		}
		if bc.Epochs() != 50 {
			t.Fatalf("shards=%d: epochs = %d", shards, bc.Epochs())
		}
		return a.ctlSum, b.ctlSum
	}
	ia, ib := run(0)
	for _, shards := range []int{2, 3} {
		sa, sb := run(shards)
		if sa != ia || sb != ib {
			t.Fatalf("shards=%d: sums %d/%d != inline %d/%d", shards, sa, sb, ia, ib)
		}
	}
}

// TestCtlConsumerEquivalence: Hash must produce the same sum from the
// transfer-only control-plane batches of a stream as from its full
// Events, however either plane is cut — the contract ConsumeCtlBatch
// implementations promise.
func TestCtlConsumerEquivalence(t *testing.T) {
	br := isa.Instr{Kind: isa.KindBranch, Target: 4}
	add := isa.Instr{Kind: isa.KindALU}
	call := isa.Instr{Kind: isa.KindCall, Target: 9}
	ret := isa.Instr{Kind: isa.KindRet}
	var full []Event
	for i := 0; i < 60; i++ {
		full = append(full,
			Event{PC: 1, Instr: &add, WroteReg: true, WrittenReg: 3, WrittenVal: int64(i), MemAddr: 8, MemVal: 7},
			Event{PC: 2, Instr: &br, Taken: i%3 == 0, Target: 4 * isa.Addr(i%3/2)},
			Event{PC: 3, Instr: &call, Taken: true, Target: 9},
			Event{PC: 9, Instr: &ret, Taken: true, Target: 4},
			Event{PC: 4, Instr: &add},
		)
	}
	for i := range full {
		full[i].Index = uint64(i)
	}
	var xfers []CtlEvent
	for _, ev := range full {
		if IsTransfer(ev.Instr.Kind) {
			xfers = append(xfers, CtlEvent{Index: ev.Index, PC: ev.PC, Instr: ev.Instr, Taken: ev.Taken, Target: ev.Target})
		}
	}

	ref := NewHash()
	ref.ConsumeBatch(full)
	scalar := NewHash()
	for i := range full {
		scalar.Consume(&full[i])
	}
	if scalar.Sum != ref.Sum {
		t.Fatalf("Hash: per-event %#x != batch %#x", scalar.Sum, ref.Sum)
	}
	for _, chunk := range []int{1, 3, 7, 4096} {
		// Cut the control plane every chunk instructions, so some
		// batches hold no transfer at all.
		hc, ht := NewHash(), NewHash()
		tee := BatchTee{ht}
		x := 0
		for i := 0; i < len(full); i += chunk {
			end := min(i+chunk, len(full))
			k := x
			for k < len(xfers) && xfers[k].Index < uint64(end) {
				k++
			}
			hc.ConsumeCtlBatch(xfers[x:k], uint64(i), uint64(end-i))
			tee.ConsumeCtlBatch(xfers[x:k], uint64(i), uint64(end-i))
			x = k
		}
		if hc.Sum != ref.Sum || ht.Sum != ref.Sum {
			t.Fatalf("chunk=%d: Hash ctl %#x, through tee %#x, full %#x", chunk, hc.Sum, ht.Sum, ref.Sum)
		}
	}

	// The count is part of the hash: the same transfers over a longer
	// stream hash differently.
	longer := NewHash()
	longer.ConsumeCtlBatch(xfers, 0, uint64(len(full)+1))
	if longer.Sum == ref.Sum {
		t.Fatal("Hash ignores the instruction count")
	}
}
