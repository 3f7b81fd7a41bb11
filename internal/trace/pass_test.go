package trace

import (
	"testing"

	"dynloop/internal/isa"
)

// lifecyclePass records the lifecycle callbacks it receives and sums the
// PCs it sees, for order and equivalence checks.
type lifecyclePass struct {
	inits, finals int
	batches       int
	sum           uint64
	order         *[]string
	name          string
}

func (p *lifecyclePass) Init() {
	p.inits++
	if p.order != nil {
		*p.order = append(*p.order, p.name+".init")
	}
}

func (p *lifecyclePass) Finalize() {
	p.finals++
	if p.order != nil {
		*p.order = append(*p.order, p.name+".final")
	}
}

func (p *lifecyclePass) ConsumeBatch(evs []Event) {
	p.batches++
	for i := range evs {
		p.sum += uint64(evs[i].PC)
	}
}

// TestAsPassUnwrapsNative: a consumer that already implements Pass comes
// back unwrapped; a plain consumer gains no-op hooks.
func TestAsPassUnwrapsNative(t *testing.T) {
	p := &lifecyclePass{}
	if AsPass(p) != Pass(p) {
		t.Fatal("native pass was wrapped")
	}
	var c Counter
	adapted := AsPass(&c)
	adapted.Init()
	in := isa.Instr{Kind: isa.KindNop}
	adapted.ConsumeBatch([]Event{{Instr: &in}, {Instr: &in}})
	adapted.Finalize()
	if c.Total != 2 {
		t.Fatalf("adapted consumer saw %d events", c.Total)
	}
}

// TestBroadcastLifecycleOrder: Init and Finalize run inline in
// registration order, exactly once, and every pass sees every batch.
func TestBroadcastLifecycleOrder(t *testing.T) {
	var order []string
	a := &lifecyclePass{order: &order, name: "a"}
	b := &lifecyclePass{order: &order, name: "b"}
	bc := NewBroadcast(0, a, b)
	bc.Init()
	in := isa.Instr{Kind: isa.KindNop}
	bc.ConsumeBatch([]Event{{PC: 1, Instr: &in}, {PC: 2, Instr: &in}})
	bc.ConsumeBatch([]Event{{PC: 3, Instr: &in}})
	bc.Finalize()
	want := []string{"a.init", "b.init", "a.final", "b.final"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if a.sum != 6 || b.sum != 6 || a.batches != 2 || b.batches != 2 {
		t.Fatalf("a = %+v, b = %+v", a, b)
	}
	if bc.Epochs() != 2 {
		t.Fatalf("epochs = %d, want 2", bc.Epochs())
	}
}

// segPass counts segmented vs plain deliveries and copies the ctl
// indices it receives.
type segPass struct {
	lifecyclePass
	segBatches int
	ctl        []int32
}

func (p *segPass) ConsumeBatchSegmented(evs []Event, ctl []int32) {
	p.segBatches++
	p.ctl = append(p.ctl, ctl...)
	for i := range evs {
		p.sum += uint64(evs[i].PC)
	}
}

// TestBroadcastSegmentedDelivery: segmentation-capable passes receive
// the producer's ctl indices and plain passes get ConsumeBatch. AsPass
// must keep the segmented method visible through its adapter.
func TestBroadcastSegmentedDelivery(t *testing.T) {
	in := isa.Instr{Kind: isa.KindNop}
	evs := []Event{{PC: 1, Instr: &in}, {PC: 2, Instr: &in}, {PC: 3, Instr: &in}}
	ctl := []int32{1}

	sp := &segPass{}
	pp := &lifecyclePass{}
	bc := NewBroadcast(0, AsPass(sp), pp)
	bc.Init()
	bc.ConsumeBatchSegmented(evs, ctl)
	bc.Finalize()
	if sp.segBatches != 1 || sp.batches != 0 {
		t.Fatalf("segmented pass got seg=%d plain=%d, want 1/0",
			sp.segBatches, sp.batches)
	}
	if len(sp.ctl) != 1 || sp.ctl[0] != 1 {
		t.Fatalf("ctl = %v, want [1]", sp.ctl)
	}
	if sp.sum != 6 {
		t.Fatalf("sum = %d, want 6", sp.sum)
	}
	if pp.batches != 1 {
		t.Fatalf("plain pass got %d batches", pp.batches)
	}
	if bc.Epochs() != 1 {
		t.Fatalf("epochs = %d", bc.Epochs())
	}
}
