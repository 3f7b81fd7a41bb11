package datapredtest

import (
	"fmt"

	"dynloop/internal/datapred"
	"dynloop/internal/interp"
	"dynloop/internal/loopdet"
	"dynloop/internal/trace"
)

// deliveries are the interpreter batch sizes Diff runs both legs at; 0
// is the default size. The interpreter sizes the tap's buffers by the
// batch size, so the small sizes also end tap batches early, at full
// buffers. The reference leg's detector takes one event at a time
// whatever the batch size (see Collector.Feed).
var deliveries = []int{1, 3, 4096, 0}

// detectors are the CLS configurations Diff runs: capacity 1, the
// paper's 16 and unbounded, each without and with a periodic flush that
// cuts runs and strands partial iterations.
var detectors = []loopdet.Config{
	{Capacity: 1}, {Capacity: 16}, {Capacity: 0},
	{Capacity: 1, FlushInterval: 997}, {Capacity: 16, FlushInterval: 997}, {Capacity: 0, FlushInterval: 997},
}

// Diff runs DiffOne once per delivery and detector configuration. It
// returns an error naming the first combination whose Summaries differ
// in any field, and otherwise the iterations the reference evaluated,
// summed over the combinations.
func Diff(newCPU func() *interp.CPU, budget uint64, cfg datapred.Config) (iters uint64, err error) {
	for _, dc := range detectors {
		for _, batch := range deliveries {
			s, err := DiffOne(newCPU, budget, dc, batch, cfg)
			if err != nil {
				return 0, err
			}
			iters += s.Iters
		}
	}
	return iters, nil
}

// DiffOne runs the stream of newCPU, up to budget instructions, twice: a
// reference Collector on the full event plane, which the reference
// interpreter produces, and a datapred.Collector on the control plane
// with the data tap, each under a detector configured by dc and both
// configured by cfg, at batch size batch (see deliveries). It returns
// the reference's Summary, or an error when the two differ in any
// field.
func DiffOne(newCPU func() *interp.CPU, budget uint64, dc loopdet.Config, batch int, cfg datapred.Config) (datapred.Summary, error) {
	ref, got := NewCollector(cfg), datapred.NewCollector(cfg)
	refDet, det := loopdet.New(dc), loopdet.New(dc)
	refDet.AddObserver(ref)
	det.AddObserver(got)
	if p := trace.PlanesOf(det); p != trace.PlaneCtl|trace.PlaneTap {
		return datapred.Summary{}, fmt.Errorf("the collector's detector asks for planes %v, not the control plane and the tap", p)
	}

	cpu := newCPU()
	cpu.SetBatchSize(batch)
	// A machine error ends the stream early; both legs see the same
	// prefix, which is all the comparison needs.
	_, _ = cpu.Run(budget, ref.Feed(refDet))
	refDet.Flush()

	cpu = newCPU()
	cpu.SetBatchSize(batch)
	_, _ = cpu.Run(budget, det)
	det.Flush()

	want, have := ref.Summary(), got.Summary()
	if have != want {
		return want, fmt.Errorf("capacity %d flush %d batch %d: summary diverged\ngot:  %+v\nwant: %+v",
			dc.Capacity, dc.FlushInterval, batch, have, want)
	}
	return want, nil
}
