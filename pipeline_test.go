// Tests for the batched trace pipeline's three contract points: the
// steady-state hot path allocates nothing, batch size never changes
// results, and the batch-buffer lifetime rules are real (and violations
// observable).
package dynloop_test

import (
	"context"
	"testing"

	"dynloop"
	"dynloop/internal/expt"
	"dynloop/internal/harness"
	"dynloop/internal/interp"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
	"dynloop/internal/loopstats"
	"dynloop/internal/program"
	"dynloop/internal/spec"
	"dynloop/internal/trace"
)

// steadyPipeline builds a long-running single-loop program with the full
// consumer stack attached (detector, Table-1 stats, 4-TU STR engine) and
// warms every lazily-allocated structure: the batch buffer, the CLS
// entry, the engine's thread queue, the table entries.
func steadyPipeline(t testing.TB) (*interp.CPU, *loopdet.Detector) {
	t.Helper()
	p := &program.Program{Name: "steady", Code: []isa.Instr{
		isa.MovI(1, 1<<40),
		isa.AddI(1, 1, -1),
		isa.Branch(isa.CondNEZ, 1, 1),
		isa.Halt(),
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cpu := interp.New(p)
	det := loopdet.New(loopdet.Config{Capacity: 16})
	det.AddObserver(loopstats.NewCollector())
	det.AddObserver(spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STR()}))
	if _, err := cpu.Run(100_000, det); err != nil {
		t.Fatal(err)
	}
	return cpu, det
}

// TestSteadyStateZeroAllocs pins the pipeline's hot path at zero heap
// allocations per instruction: once warm, retiring instructions through
// the batch buffer, the detector, the statistics collector and the
// speculation engine must not allocate at all — on the control plane
// the stack negotiates, and forced onto the full event plane.
func TestSteadyStateZeroAllocs(t *testing.T) {
	cpu, det := steadyPipeline(t)
	for _, leg := range []struct {
		name string
		sink trace.BatchConsumer
	}{{"ctl", det}, {"full", trace.ForceFullPlane(det)}} {
		if _, err := cpu.Run(10_000, leg.sink); err != nil { // warm the plane's buffers
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, err := cpu.Run(10_000, leg.sink); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("%s steady-state allocs per 10k-instruction run = %v, want 0", leg.name, avg)
		}
	}
}

// TestCtlSteadyStateZeroAllocs pins the control-plane hot path the same
// way: an observer-free detector negotiates transfer-only control-plane
// delivery (trace.PlanesOf == PlaneCtl), and once the ctl batch buffer is
// warm, retiring instructions through it must not allocate at all.
func TestCtlSteadyStateZeroAllocs(t *testing.T) {
	p := &program.Program{Name: "steady-ctl", Code: []isa.Instr{
		isa.MovI(1, 1<<40),
		isa.AddI(1, 1, -1),
		isa.Branch(isa.CondNEZ, 1, 1),
		isa.Halt(),
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cpu := interp.New(p)
	det := loopdet.New(loopdet.Config{Capacity: 16})
	if got := trace.PlanesOf(det); got != trace.PlaneCtl {
		t.Fatalf("bare detector planes = %v, want ctl-only", got)
	}
	if _, err := cpu.Run(100_000, det); err != nil { // warm the ctl batch
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := cpu.Run(10_000, det); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("ctl steady-state allocs per 10k-instruction run = %v, want 0", avg)
	}
}

// TestBatchSizeHarnessDeterminism runs one benchmark through the harness
// at several batch sizes — including 1, the degenerate per-instruction
// delivery — and requires identical stream hashes, detector stats, loop
// statistics and engine metrics.
func TestBatchSizeHarnessDeterminism(t *testing.T) {
	type outcome struct {
		res   harness.Result
		hash  uint64
		stats loopdet.Stats
		ls    loopstats.Summary
		m     spec.Metrics
	}
	run := func(batch int) outcome {
		bm, err := dynloop.BenchmarkByName("compress")
		if err != nil {
			t.Fatal(err)
		}
		u, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		h := trace.NewHash()
		ls := loopstats.NewCollector()
		e := spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STRn(3)})
		res, err := harness.Run(u, harness.Config{
			Budget:      150_000,
			BatchSize:   batch,
			PreDetector: []trace.Consumer{h},
		}, ls, e)
		if err != nil {
			t.Fatal(err)
		}
		stats := res.Detector.Stats()
		res.Detector = nil // pointers differ between runs
		return outcome{res, h.Sum, stats, ls.Summary(), e.Metrics()}
	}
	ref := run(1)
	for _, batch := range []int{3, 100, 4096, 1 << 20} {
		if got := run(batch); got != ref {
			t.Fatalf("batch=%d: outcome diverged\ngot:  %+v\nwant: %+v", batch, got, ref)
		}
	}
}

// TestBatchSizeFullReportDeterminism regenerates a slice of the full
// evaluation report at batch sizes 1 and 4096 and requires the rendered
// output to be byte-identical — the acceptance criterion of the batch
// refactor.
func TestBatchSizeFullReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full report regeneration is seconds-long")
	}
	run := func(batch int) string {
		out, err := expt.All(context.Background(), expt.Config{
			Budget:     100_000,
			Benchmarks: []string{"compress", "li"},
			BatchSize:  batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(1), run(4096)
	if a != b {
		t.Fatalf("full report differs between batch=1 and batch=4096:\n--- batch=1 ---\n%s\n--- batch=4096 ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty report")
	}
}

// TestBatchBufferIsReused catches the batch-lifetime footgun in the act:
// a consumer that retains the slice passed to ConsumeBatch observes its
// contents change when the producer reuses the buffer for the next
// batch. (A consumer that additionally reads the retained slice from
// another goroutine is a data race; the -race CI job would flag it.)
func TestBatchBufferIsReused(t *testing.T) {
	cpu, _ := steadyPipeline(t)
	var retained []trace.Event
	var snapshot []trace.Event
	batches := 0
	sink := trace.BatchConsumerFunc(func(evs []trace.Event) {
		if batches == 0 {
			retained = evs // the footgun: keeping the producer's buffer
			snapshot = append([]trace.Event(nil), evs...)
		}
		batches++
	})
	if _, err := cpu.Run(3*interp.DefaultBatchSize, sink); err != nil {
		t.Fatal(err)
	}
	if batches < 2 {
		t.Fatalf("only %d batches delivered; need at least 2 to observe reuse", batches)
	}
	if retained[0] == snapshot[0] {
		t.Fatal("retained batch still holds first-batch data: producer stopped reusing the buffer, update the lifetime docs")
	}
}

// TestBatchCopyIsRaceFree exercises the documented safe pattern — copy
// the batch, then hand it to another goroutine — under the race
// detector, and checks the asynchronous copy observed the same stream.
func TestBatchCopyIsRaceFree(t *testing.T) {
	cpu, _ := steadyPipeline(t)

	ch := make(chan []trace.Event, 8)
	sum := make(chan uint64)
	go func() {
		h := trace.NewHash()
		for evs := range ch {
			h.ConsumeBatch(evs)
		}
		sum <- h.Sum
	}()

	ref := trace.NewHash()
	sink := trace.BatchConsumerFunc(func(evs []trace.Event) {
		ref.ConsumeBatch(evs)
		cp := make([]trace.Event, len(evs))
		copy(cp, evs)
		ch <- cp
	})
	if _, err := cpu.Run(50_000, sink); err != nil {
		t.Fatal(err)
	}
	close(ch)
	if got := <-sum; got != ref.Sum {
		t.Fatalf("async hash %x != sync hash %x", got, ref.Sum)
	}
}
