package dynloop_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"testing/quick"

	"dynloop"
	"dynloop/internal/builder"
	"dynloop/internal/client"
	"dynloop/internal/expt"
	"dynloop/internal/harness"
	"dynloop/internal/loopdet"
	"dynloop/internal/server"
	"dynloop/internal/spec"
	"dynloop/internal/wire"
)

// TestFullPipelineAllObservers runs every workload once with EVERY
// instrument attached simultaneously — the detector must serve all
// consumers from one pass without interference.
func TestFullPipelineAllObservers(t *testing.T) {
	for _, bm := range dynloop.Benchmarks() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			u, err := bm.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			stats := dynloop.NewLoopStats()
			tables := dynloop.NewTableTracker(16, 4)
			data := dynloop.NewDataStats()
			engine := dynloop.NewEngine(dynloop.EngineConfig{TUs: 4, Policy: dynloop.STRn(3)})
			res, err := dynloop.Run(u, dynloop.RunConfig{Budget: 250_000},
				stats, tables, data, engine)
			if err != nil {
				t.Fatal(err)
			}
			if res.Executed == 0 {
				t.Fatal("nothing executed")
			}
			m := engine.Metrics()
			if m.Anomalies != 0 {
				t.Fatalf("engine anomalies: %d", m.Anomalies)
			}
			tpc := m.TPC()
			if tpc < 1.0-1e-9 || tpc > 4.0+1e-9 {
				t.Fatalf("TPC %v out of [1,4]", tpc)
			}
			if s := stats.Summary(); s.Instrs != res.Executed {
				t.Fatalf("stats saw %d of %d instructions", s.Instrs, res.Executed)
			}
		})
	}
}

// TestRandomProgramsProperty drives randomly generated structured
// programs through the full pipeline and checks global invariants:
// the machine runs without errors, the CLS drains, TPC is bounded by the
// TU count, thread accounting conserves, and everything is
// deterministic.
func TestRandomProgramsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		u, err := dynloop.RandomProgram(seed)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		run := func() (harness.Result, spec.Metrics) {
			e := spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STR()})
			res, err := harness.Run(u, harness.Config{Budget: 60_000}, e)
			if err != nil {
				t.Logf("seed %d: run: %v", seed, err)
				return harness.Result{}, spec.Metrics{}
			}
			return res, e.Metrics()
		}
		res1, m1 := run()
		res2, m2 := run()
		if res1.Executed == 0 {
			return false
		}
		if res1.Executed != res2.Executed || m1 != m2 {
			t.Logf("seed %d: nondeterministic", seed)
			return false
		}
		if res1.Detector.Depth() != 0 {
			t.Logf("seed %d: CLS not drained", seed)
			return false
		}
		if m1.Anomalies != 0 {
			t.Logf("seed %d: anomalies=%d", seed, m1.Anomalies)
			return false
		}
		if m1.ThreadsSpawned != m1.ThreadsPromoted+m1.ThreadsSquashed+m1.ThreadsFlushed {
			t.Logf("seed %d: thread accounting broken: %+v", seed, m1)
			return false
		}
		if tpc := m1.TPC(); tpc < 1.0-1e-9 || tpc > 4.0+1e-9 {
			t.Logf("seed %d: TPC %v out of bounds", seed, tpc)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomProgramsGroundTruth compares the detector's execution counts
// against the builder's static loop inventory on random programs: every
// detected loop head must be a loop the builder emitted.
func TestRandomProgramsGroundTruth(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		u, err := builder.Random(seed, builder.RandomOpt{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		known := make(map[uint32]bool, len(u.Loops))
		for _, li := range u.Loops {
			known[uint32(li.Head)] = true
		}
		seen := make(map[uint32]bool)
		obs := loopdet.NopObserver{}
		_ = obs
		collect := &headCollector{seen: seen}
		if _, err := harness.Run(u, harness.Config{Budget: 60_000}, collect); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for head := range seen {
			if !known[head] {
				t.Fatalf("seed %d: detector found loop @%d the builder never emitted", seed, head)
			}
		}
	}
}

type headCollector struct {
	loopdet.NopObserver
	seen map[uint32]bool
}

func (h *headCollector) ExecStart(x *loopdet.Exec) { h.seen[uint32(x.T)] = true }

// TestExperimentSubset exercises each experiment driver end to end on a
// small subset so the table/figure plumbing is covered by `go test`.
func TestExperimentSubset(t *testing.T) {
	ctx := context.Background()
	cfg := expt.Config{Budget: 120_000, Benchmarks: []string{"compress", "perl"}}
	t1, err := expt.Table1(ctx, cfg)
	if err != nil || len(t1) != 2 {
		t.Fatalf("table1: %v (%d rows)", err, len(t1))
	}
	if s := expt.RenderTable1(t1); len(s) == 0 {
		t.Fatal("empty table1 render")
	}
	t2, err := expt.Table2(ctx, cfg)
	if err != nil || len(t2) != 2 {
		t.Fatalf("table2: %v", err)
	}
	_ = expt.RenderTable2(t2)
	f4, err := expt.Fig4(ctx, cfg)
	if err != nil || len(f4) != len(expt.Fig4Sizes) {
		t.Fatalf("fig4: %v", err)
	}
	_ = expt.RenderFig4(f4)
	f5, err := expt.Fig5(ctx, cfg)
	if err != nil {
		t.Fatalf("fig5: %v", err)
	}
	for _, r := range f5 {
		if r.TPCFull < 1 {
			t.Fatalf("fig5 TPC < 1: %+v", r)
		}
	}
	_ = expt.RenderFig5(f5)
	f6, err := expt.Fig6(ctx, cfg)
	if err != nil {
		t.Fatalf("fig6: %v", err)
	}
	_ = expt.RenderFig6(f6)
	f7, err := expt.Fig7(ctx, cfg)
	if err != nil || len(f7) != 20 {
		t.Fatalf("fig7: %v (%d cells)", err, len(f7))
	}
	_ = expt.RenderFig7(f7)
	f8, avg, err := expt.Fig8(ctx, cfg)
	if err != nil || len(f8) != 2 {
		t.Fatalf("fig8: %v", err)
	}
	_ = expt.RenderFig8(f8, avg)
}

// TestAblationSubset exercises the ablation drivers.
func TestAblationSubset(t *testing.T) {
	ctx := context.Background()
	cfg := expt.Config{Budget: 100_000, Benchmarks: []string{"m88ksim"}}
	if rows, err := expt.AblationCLSSize(ctx, cfg, []int{2, 16}); err != nil || len(rows) != 2 {
		t.Fatalf("cls size: %v", err)
	}
	if rows, err := expt.AblationLETCapacity(ctx, cfg, []int{2, 0}); err != nil || len(rows) != 2 {
		t.Fatalf("let capacity: %v", err)
	}
	if rows, err := expt.AblationReplacement(ctx, cfg, []int{2}); err != nil || len(rows) != 1 {
		t.Fatalf("replacement: %v", err)
	}
	if rows, err := expt.AblationOneShots(ctx, cfg); err != nil || len(rows) != 1 {
		t.Fatalf("one shots: %v", err)
	}
	if rows, err := expt.AblationNestRule(ctx, cfg, []int{4}); err != nil || len(rows) != 2 {
		t.Fatalf("nest rule: %v", err)
	}
}

// TestInfiniteBeatsFinite: on every workload, the unlimited machine must
// dominate the 16-TU machine which must dominate the 2-TU machine.
func TestInfiniteBeatsFinite(t *testing.T) {
	for _, name := range []string{"swim", "compress", "gcc"} {
		bm, err := dynloop.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tpc := func(tus int) float64 {
			u, err := bm.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			e := dynloop.NewEngine(dynloop.EngineConfig{TUs: tus, Policy: dynloop.Idle()})
			if _, err := dynloop.Run(u, dynloop.RunConfig{Budget: 400_000}, e); err != nil {
				t.Fatal(err)
			}
			return e.Metrics().TPC()
		}
		inf, big, small := tpc(0), tpc(16), tpc(2)
		if !(inf >= big && big >= small-1e-9) {
			t.Fatalf("%s: TPC ordering broken: inf=%.2f 16=%.2f 2=%.2f", name, inf, big, small)
		}
	}
}

// TestStaticNestRule checks the alternative STR(i) interpretation is
// wired through and behaves: with the literal structural rule, a
// speculated outer loop above a deep nest is squashed even when the
// inner loops want nothing.
func TestStaticNestRule(t *testing.T) {
	bm, err := dynloop.BenchmarkByName("fpppp")
	if err != nil {
		t.Fatal(err)
	}
	run := func(rule spec.NestRule) spec.Metrics {
		u, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		e := spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STRn(3), NestRule: rule})
		if _, err := dynloop.Run(u, dynloop.RunConfig{Budget: 800_000}, e); err != nil {
			t.Fatal(err)
		}
		return e.Metrics()
	}
	starve := run(spec.NestRuleStarvation)
	static := run(spec.NestRuleStatic)
	// fpppp is exactly the case that separates the readings: the static
	// rule keeps squashing the coarse threads above its deep tiny nests.
	if static.ThreadsSquashed <= starve.ThreadsSquashed {
		t.Fatalf("static rule should squash more on fpppp: static=%d starvation=%d",
			static.ThreadsSquashed, starve.ThreadsSquashed)
	}
	if static.TPC() >= starve.TPC() {
		t.Fatalf("static rule should cost TPC on fpppp: static=%.2f starvation=%.2f",
			static.TPC(), starve.TPC())
	}
}

// TestTracesLocalRemoteByteIdentical is the replay tier's integration
// leg: the same sweep rendered (a) locally by the interpreter, (b)
// locally replayed from a trace archive, and (c) remotely by a daemon
// whose runner is backed by that archive, must be byte-identical — the
// scripted counterpart is scripts/replay_smoke.sh.
func TestTracesLocalRemoteByteIdentical(t *testing.T) {
	ctx := context.Background()
	sweepSpec := expt.SweepSpec{Policies: []spec.Policy{spec.STR(), spec.STRn(3)}, TUs: []int{2, 4}}

	// (a) Interpreted reference.
	cfg := expt.Config{Budget: 50_000, Benchmarks: []string{"swim", "compress"}, Parallel: 2}
	rows, err := expt.Sweep(ctx, cfg, sweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := expt.RenderSweep(rows)

	// (b) Locally traced: the first sweep records, the second replays;
	// both render the reference bytes.
	tr := newTraces(t)
	cfg.Traces = tr
	for pass := 0; pass < 2; pass++ {
		rows, err := expt.Sweep(ctx, cfg, sweepSpec)
		if err != nil {
			t.Fatalf("traced pass %d: %v", pass, err)
		}
		if got := expt.RenderSweep(rows); got != want {
			t.Fatalf("traced pass %d render differs:\n%s\nwant:\n%s", pass, got, want)
		}
	}
	if st := tr.Stats(); st.Records == 0 || st.Replays == 0 {
		t.Fatalf("local trace tier never engaged: %+v", st)
	}

	// (c) Remote: a daemon over the same (now warm) archive serves the
	// sweep from replay alone and renders the reference bytes.
	s := server.New(server.Config{Workers: 4, Traces: tr})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL, hs.Client())
	gs := sweepSpec.GridSpec()
	values, err := c.Grid(ctx, wire.GridRequest{Spec: &gs, Benchmarks: cfg.Benchmarks, Budget: cfg.Budget})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dynloop.GridResultFrom(cfg, gs, values)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := dynloop.RenderGrid(res); err != nil || got != want {
		t.Fatalf("remote render differs (%v):\n%s\nwant:\n%s", err, got, want)
	}
	st := s.Runner().Stats()
	if st.ReplayRuns == 0 || st.RecordRuns != 0 {
		t.Fatalf("daemon did not serve from replay alone: %+v", st)
	}
}
