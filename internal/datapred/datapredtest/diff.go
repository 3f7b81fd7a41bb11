package datapredtest

import (
	"fmt"

	"dynloop/internal/datapred"
	"dynloop/internal/interp"
	"dynloop/internal/loopdet"
	"dynloop/internal/trace"
)

// deliveries are the ways Diff hands a stream to the detector: batches of
// these sizes, and 0 for one Detector.Consume call per event.
var deliveries = []int{1, 3, 4096, 0}

// detectors are the CLS configurations Diff runs: capacity 1, the
// paper's 16 and unbounded, each without and with a periodic flush that
// cuts runs and strands partial iterations.
var detectors = []loopdet.Config{
	{Capacity: 1}, {Capacity: 16}, {Capacity: 0},
	{Capacity: 1, FlushInterval: 997}, {Capacity: 16, FlushInterval: 997}, {Capacity: 0, FlushInterval: 997},
}

// Diff runs the stream of newCPU, up to budget instructions, once per
// delivery and detector configuration, with a reference Collector and a
// datapred.Collector (both configured by cfg) on the same detector. It
// returns an error naming the first combination whose Summaries differ
// in any field, and otherwise the iterations the reference evaluated,
// summed over the combinations.
func Diff(newCPU func() *interp.CPU, budget uint64, cfg datapred.Config) (iters uint64, err error) {
	for _, dc := range detectors {
		for _, batch := range deliveries {
			det := loopdet.New(dc)
			ref, got := NewCollector(cfg), datapred.NewCollector(cfg)
			det.AddObserver(ref)
			det.AddObserver(got)
			cpu := newCPU()
			var sink trace.BatchConsumer = det
			if batch == 0 {
				sink = trace.ConsumerFunc(det.Consume)
			} else {
				cpu.SetBatchSize(batch)
			}
			// A machine error ends the stream early; both collectors saw
			// the same prefix, which is all the comparison needs.
			_, _ = cpu.Run(budget, sink)
			det.Flush()
			want, have := ref.Summary(), got.Summary()
			if have != want {
				return 0, fmt.Errorf("capacity %d flush %d batch %d: summary diverged\ngot:  %+v\nwant: %+v",
					dc.Capacity, dc.FlushInterval, batch, have, want)
			}
			iters += want.Iters
		}
	}
	return iters, nil
}
