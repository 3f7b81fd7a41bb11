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
