package dynloop_test

import (
	"context"
	"fmt"
	"testing"

	"dynloop"
	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/harness"
	"dynloop/internal/interp"
	"dynloop/internal/runner"
	"dynloop/internal/trace"
	"dynloop/internal/tracefile"
)

// newTraces opens a fresh trace archive in a test temp dir.
func newTraces(t *testing.T) *harness.Traces {
	t.Helper()
	a, err := tracefile.OpenArchive(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return harness.NewTraces(a)
}

// TestReplayEquivalenceAllGrids is the replay tier's acceptance suite:
// every registered grid spec renders byte-identically whether its cells
// are fed by the interpreter or by decode-only replay from the trace
// archive — at 1 and 8 workers and across interpreter batch sizes. A
// final pass over the fully warm archive must make no interpreter
// traversal but Figure 8's, one per stream on the control plane with
// the data tap, which only the interpreter produces: record once,
// replay everywhere else.
func TestReplayEquivalenceAllGrids(t *testing.T) {
	ctx := context.Background()
	base := expt.Config{Budget: 50_000, Benchmarks: []string{"m88ksim", "perl"}}

	// Interpreted reference render for every registered grid.
	ref := make(map[string]string)
	refCfg := base
	refCfg.Runner = runner.New(runner.Config{Workers: 4})
	for _, name := range grid.Names() {
		e, ok := grid.Lookup(name)
		if !ok {
			t.Fatalf("grid %q vanished from the registry", name)
		}
		res, err := grid.Run(ctx, refCfg, e.Spec)
		if err != nil {
			t.Fatalf("%s (interpreted): %v", name, err)
		}
		out, err := e.Render(res)
		if err != nil {
			t.Fatalf("%s render: %v", name, err)
		}
		ref[name] = out
	}

	// One shared archive across every traced configuration: the first
	// pass records, everything after replays the same files.
	tr := newTraces(t)
	for _, parallel := range []int{1, 8} {
		for _, batch := range []int{0, 256} {
			cfg := base
			cfg.Runner = runner.New(runner.Config{Workers: parallel})
			cfg.Traces = tr
			cfg.BatchSize = batch
			for _, name := range grid.Names() {
				e, _ := grid.Lookup(name)
				res, err := grid.Run(ctx, cfg, e.Spec)
				if err != nil {
					t.Fatalf("%s (parallel=%d batch=%d): %v", name, parallel, batch, err)
				}
				got, err := e.Render(res)
				if err != nil {
					t.Fatalf("%s render: %v", name, err)
				}
				if got != ref[name] {
					t.Errorf("%s (parallel=%d batch=%d): traced render differs from interpreted:\n--- traced ---\n%s\n--- interpreted ---\n%s",
						name, parallel, batch, got, ref[name])
				}
			}
		}
	}

	st := tr.Stats()
	if st.Records == 0 || st.Replays == 0 {
		t.Fatalf("trace tier never engaged: %+v", st)
	}

	// Fully warm archive: one more complete pass, interpreting only the
	// tap traversals.
	before := harness.Traversals()
	ctl0, tap0, full0 := interp.PlaneRuns()
	cfg := base
	cfg.Runner = runner.New(runner.Config{Workers: 8})
	cfg.Traces = tr
	for _, name := range grid.Names() {
		e, _ := grid.Lookup(name)
		res, err := grid.Run(ctx, cfg, e.Spec)
		if err != nil {
			t.Fatalf("%s (warm): %v", name, err)
		}
		got, err := e.Render(res)
		if err != nil {
			t.Fatalf("%s render: %v", name, err)
		}
		if got != ref[name] {
			t.Errorf("%s (warm): render differs from interpreted", name)
		}
	}
	ctl1, tap1, full1 := interp.PlaneRuns()
	streams := uint64(len(base.Benchmarks))
	if got := harness.Traversals() - before; got != streams || tap1-tap0 != streams || ctl1 != ctl0 || full1 != full0 {
		t.Errorf("warm-archive pass made %d interpreter traversals (%d control-plane, %d tap, %d full-plane), want %d tap traversals only",
			got, ctl1-ctl0, tap1-tap0, full1-full0, streams)
	}
	if after := tr.Stats(); after.Records != st.Records {
		t.Errorf("warm-archive pass recorded %d new traces, want 0", after.Records-st.Records)
	}
}

// TestPlaneEquivalenceAllGrids is the facet split's acceptance suite:
// every registered grid renders byte-identically interpreted and
// replayed from the trace archive, at 1 and 8 workers, with each
// traversal on the narrowest plane its passes accept. The comparison
// with forced full-Event delivery on the reference interpreter is
// grid's TestReferencePathByteIdentical, at the same budget and
// benchmarks.
func TestPlaneEquivalenceAllGrids(t *testing.T) {
	ctx := context.Background()
	base := expt.Config{Budget: 50_000, Benchmarks: []string{"m88ksim", "perl"}}

	render := func(cfg expt.Config, leg string) map[string]string {
		t.Helper()
		out := make(map[string]string)
		for _, name := range grid.Names() {
			e, ok := grid.Lookup(name)
			if !ok {
				t.Fatalf("grid %q vanished from the registry", name)
			}
			res, err := grid.Run(ctx, cfg, e.Spec)
			if err != nil {
				t.Fatalf("%s (%s): %v", name, leg, err)
			}
			s, err := e.Render(res)
			if err != nil {
				t.Fatalf("%s render (%s): %v", name, leg, err)
			}
			out[name] = s
		}
		return out
	}
	compare := func(got, want map[string]string, leg string) {
		t.Helper()
		for name := range want {
			if got[name] != want[name] {
				t.Errorf("%s (%s): render differs from reference:\n--- got ---\n%s\n--- want ---\n%s",
					name, leg, got[name], want[name])
			}
		}
	}

	// Interpreted, at 1 and 8 workers; the first is the reference.
	var ref map[string]string
	for _, parallel := range []int{1, 8} {
		cfg := base
		cfg.Runner = runner.New(runner.Config{Workers: parallel})
		leg := fmt.Sprintf("interpreted parallel=%d", parallel)
		got := render(cfg, leg)
		if ref == nil {
			ref = got
			continue
		}
		compare(got, ref, leg)
	}

	// Replayed: one recording pass warms the archive, then every later
	// pass is decode-only — same comparisons on the replay path.
	tr := newTraces(t)
	warm := base
	warm.Runner = runner.New(runner.Config{Workers: 4})
	warm.Traces = tr
	compare(render(warm, "recording"), ref, "recording")
	if st := tr.Stats(); st.Records == 0 {
		t.Fatalf("recording pass recorded nothing: %+v", st)
	}
	for _, parallel := range []int{1, 8} {
		cfg := base
		cfg.Runner = runner.New(runner.Config{Workers: parallel})
		cfg.Traces = tr
		leg := fmt.Sprintf("replayed parallel=%d", parallel)
		before := tr.Stats().Replays
		compare(render(cfg, leg), ref, leg)
		if tr.Stats().Replays == before {
			t.Fatalf("%s: no replays happened — comparison was not on the replay path", leg)
		}
	}
}

// TestReplayTruncationEquivalence: one long recording serves every
// smaller budget with the exact stream a fresh interpretation of that
// budget produces — through the public facade.
func TestReplayTruncationEquivalence(t *testing.T) {
	ctx := context.Background()
	bm, err := dynloop.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*dynloop.Unit, error) { return bm.Build(1) }

	tr := newTraces(t)
	res, replayed, err := tr.MultiRun(ctx, bm.Name, 1, build, dynloop.MultiRunConfig{Budget: 80_000})
	if err != nil {
		t.Fatal(err)
	}
	if replayed || res.Executed != 80_000 {
		t.Fatalf("record run: %+v (replayed=%v)", res, replayed)
	}

	for _, budget := range []uint64{1_000, 40_000, 80_000} {
		u, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var want trace.Hash
		refRes, err := harness.MultiRun(u, harness.MultiConfig{Budget: budget}, trace.AsPass(&want))
		if err != nil {
			t.Fatal(err)
		}
		var got trace.Hash
		res, replayed, err := tr.MultiRun(ctx, bm.Name, 1, build, dynloop.MultiRunConfig{Budget: budget}, trace.AsPass(&got))
		if err != nil {
			t.Fatal(err)
		}
		if !replayed {
			t.Fatalf("budget %d not served by the 80k recording", budget)
		}
		if res.Executed != refRes.Executed || res.Halted != refRes.Halted {
			t.Fatalf("budget %d: replay %+v, interpret %+v", budget, res, refRes)
		}
		if got.Sum != want.Sum {
			t.Fatalf("budget %d: replay hash %x != interpreted hash %x", budget, got.Sum, want.Sum)
		}
	}
}
