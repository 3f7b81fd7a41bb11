package harness

import (
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/loopdet"
	"dynloop/internal/trace"
)

func unit(t *testing.T) *builder.Unit {
	t.Helper()
	b := builder.New("h", 1)
	b.CountedLoop(builder.TripImm(5), builder.LoopOpt{}, func() { b.Work(4) })
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestRunToCompletion: default config runs to halt and flushes.
func TestRunToCompletion(t *testing.T) {
	res, err := Run(unit(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.Executed == 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.Detector.Depth() != 0 {
		t.Fatal("detector not flushed")
	}
}

// TestBudgetStops: the budget truncates the run without error.
func TestBudgetStops(t *testing.T) {
	res, err := Run(unit(t), Config{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted || res.Executed != 10 {
		t.Fatalf("res = %+v", res)
	}
}

// TestCLSCapacityMapping: 0 selects the paper's default, negative means
// unbounded.
func TestCLSCapacityMapping(t *testing.T) {
	if got := ResolveCLSCapacity(0); got != DefaultCLSCapacity {
		t.Fatalf("default capacity = %d", got)
	}
	if got := ResolveCLSCapacity(-1); got != 0 {
		t.Fatalf("unbounded capacity = %d", got)
	}
	if got := ResolveCLSCapacity(3); got != 3 {
		t.Fatalf("explicit capacity = %d", got)
	}
}

// TestPreDetectorConsumers: extra consumers see the raw stream before the
// detector.
func TestPreDetectorConsumers(t *testing.T) {
	var counter trace.Counter
	res, err := Run(unit(t), Config{PreDetector: []trace.Consumer{&counter}})
	if err != nil {
		t.Fatal(err)
	}
	if counter.Total != res.Executed {
		t.Fatalf("pre-detector consumer saw %d of %d", counter.Total, res.Executed)
	}
}

// TestObserversAttached: loop events reach the observers.
func TestObserversAttached(t *testing.T) {
	var execs int
	obs := &execCounter{n: &execs}
	if _, err := Run(unit(t), Config{}, obs); err != nil {
		t.Fatal(err)
	}
	if execs != 1 {
		t.Fatalf("execs = %d, want 1", execs)
	}
}

type execCounter struct {
	loopdet.NopObserver
	n *int
}

func (e *execCounter) ExecStart(*loopdet.Exec) { *e.n++ }

// TestMultiRunMatchesSeparateRuns: N passes fused into one traversal
// produce exactly the results of N separate Run traversals — including
// passes with different CLS capacities — while the traversal counter
// shows a single traversal.
func TestMultiRunMatchesSeparateRuns(t *testing.T) {
	u := unit(t)
	// Reference: three separate traversals.
	var hashRef trace.Hash
	sep1, err := Run(u, Config{PreDetector: []trace.Consumer{&hashRef}})
	if err != nil {
		t.Fatal(err)
	}
	var e1 int
	sep2, err := Run(u, Config{}, &execCounter{n: &e1})
	if err != nil {
		t.Fatal(err)
	}
	sep3, err := Run(u, Config{CLSCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Fused: the same three analyses on one traversal.
	var hash trace.Hash
	var e2 int
	det := NewObserverPass(0, &execCounter{n: &e2})
	detUnbounded := NewObserverPass(-1)
	before := Traversals()
	res, err := MultiRun(u, MultiConfig{}, trace.AsPass(&hash), det, detUnbounded)
	if err != nil {
		t.Fatal(err)
	}
	if got := Traversals() - before; got != 1 {
		t.Fatalf("fused run used %d traversals, want 1", got)
	}
	if res.Executed != sep1.Executed || !res.Halted {
		t.Fatalf("res = %+v, want executed %d", res, sep1.Executed)
	}
	if hash.Sum != hashRef.Sum {
		t.Fatalf("stream hash diverged: %x vs %x", hash.Sum, hashRef.Sum)
	}
	if e2 != e1 {
		t.Fatalf("fused observer saw %d execs, separate saw %d", e2, e1)
	}
	if det.Stats() != sep2.Detector.Stats() {
		t.Fatalf("detector stats diverged:\nfused:    %+v\nseparate: %+v", det.Stats(), sep2.Detector.Stats())
	}
	if detUnbounded.Stats() != sep3.Detector.Stats() {
		t.Fatalf("unbounded detector stats diverged")
	}
	if res.Batches == 0 {
		t.Fatal("no batches reported")
	}
}
