package trace

// Pass is one complete analysis lifecycle over an event stream: Init is
// called once before the first batch of a traversal, ConsumeBatch for
// every batch in stream order, Finalize once after the last batch. It is
// the unit the broadcast fan-out and harness.MultiRun schedule: any
// number of passes share a single traversal of the stream, each one as
// isolated as if it had run alone.
//
// The batch-lifetime rules of BatchConsumer apply unchanged: the slice
// passed to ConsumeBatch is owned by the producer, is reused for the
// next batch (the next "epoch", see Broadcast) as soon as every pass has
// returned, and must be treated as read-only — a pass that wrote to the
// shared buffer would corrupt its sibling passes.
type Pass interface {
	// Init is called once, before the first batch.
	Init()
	BatchConsumer
	// Finalize is called once, after the last batch of a completed
	// traversal (it is skipped when the traversal aborts on error).
	Finalize()
}

// passAdapter lifts a plain BatchConsumer into a Pass with no-op
// lifecycle hooks.
type passAdapter struct{ BatchConsumer }

func (passAdapter) Init()     {}
func (passAdapter) Finalize() {}

// ctlPassAdapter is the control-plane-capable variant: it keeps
// ConsumeCtlBatch (and the consumer's declared planes) visible through
// the Pass, so Broadcast's facet negotiation still sees the wrapped
// consumer's capabilities. A distinct adapter type matters here — a
// single adapter that always implemented CtlBatchConsumer would make
// every wrapped consumer look control-only.
type ctlPassAdapter struct {
	BatchConsumer
	ctl CtlBatchConsumer
}

func (ctlPassAdapter) Init()     {}
func (ctlPassAdapter) Finalize() {}
func (a ctlPassAdapter) ConsumeCtlBatch(evs []CtlEvent, first, n uint64) {
	a.ctl.ConsumeCtlBatch(evs, first, n)
}
func (a ctlPassAdapter) NeedPlanes() Planes { return PlanesOf(a.BatchConsumer) }

// AsPass adapts a plain batch consumer to the Pass interface with no-op
// Init/Finalize. Consumers that already implement Pass are returned
// unwrapped; control-plane-capable consumers keep ConsumeCtlBatch
// visible through the adapter.
func AsPass(c BatchConsumer) Pass {
	if p, ok := c.(Pass); ok {
		return p
	}
	if cc, ok := c.(CtlBatchConsumer); ok {
		return ctlPassAdapter{c, cc}
	}
	return passAdapter{c}
}

// Broadcast fans one event stream out to any number of passes, so a
// single traversal of the stream (one interpreter run, one trace-file
// replay) feeds every registered analysis at once.
//
// # Buffer epochs
//
// The producer owns the batch buffer and reuses it for the next batch as
// soon as ConsumeBatch returns; each delivery is therefore one buffer
// "epoch". Passes run inline, in registration order, so ConsumeBatch
// returns — and the producer may overwrite the buffer — only after every
// pass has finished consuming the batch. Epochs() counts deliveries.
//
// Broadcast negotiates event facets for the whole fan-out: NeedPlanes
// reports the union of the passes' needs, and when every pass is
// control-only a producer may deliver transfer-only control-plane
// batches through ConsumeCtlBatch instead of full Events, or through
// ConsumeTapBatch when some pass also reads the data tap.
type Broadcast struct {
	passes []Pass
	epochs uint64
}

// NewBroadcast returns a broadcast over the passes. The int parameter
// is ignored; it stays until the benchmark harness (perfbench), which
// passes 0, drops the argument.
func NewBroadcast(_ int, passes ...Pass) *Broadcast {
	return &Broadcast{passes: passes}
}

// Epochs returns the number of batches delivered so far.
func (b *Broadcast) Epochs() uint64 { return b.epochs }

// NeedPlanes reports the union of the passes' facet needs: control-only
// exactly when every pass is control-only. It is computed on demand so
// passes added after construction are counted.
func (b *Broadcast) NeedPlanes() Planes {
	var p Planes
	for _, pass := range b.passes {
		p |= PlanesOf(pass)
	}
	if p == 0 {
		p = PlaneCtl
	}
	return p
}

// Init initialises every pass in registration order.
func (b *Broadcast) Init() {
	for _, p := range b.passes {
		p.Init()
	}
}

// ConsumeBatch delivers one epoch to every pass.
func (b *Broadcast) ConsumeBatch(evs []Event) {
	b.epochs++
	for _, p := range b.passes {
		p.ConsumeBatch(evs)
	}
}

// ConsumeCtlBatch delivers one control-plane epoch. Producers call it
// only when NeedPlanes() == PlaneCtl, which guarantees every pass
// implements CtlBatchConsumer.
func (b *Broadcast) ConsumeCtlBatch(evs []CtlEvent, first, n uint64) {
	b.epochs++
	for _, p := range b.passes {
		p.(CtlBatchConsumer).ConsumeCtlBatch(evs, first, n)
	}
}

// ConsumeTapBatch delivers one control-plane epoch with its data tap.
// Producers call it only when NeedPlanes() == PlaneCtl|PlaneTap, so
// every pass is a CtlBatchConsumer; passes that take the tap receive it
// and the others the control-plane batch alone.
func (b *Broadcast) ConsumeTapBatch(evs []CtlEvent, first, n uint64, tap *Tap) {
	b.epochs++
	for _, p := range b.passes {
		if tp, ok := p.(TapBatchConsumer); ok {
			tp.ConsumeTapBatch(evs, first, n, tap)
			continue
		}
		p.(CtlBatchConsumer).ConsumeCtlBatch(evs, first, n)
	}
}

// Finalize finalises every pass in registration order.
func (b *Broadcast) Finalize() {
	for _, p := range b.passes {
		p.Finalize()
	}
}
