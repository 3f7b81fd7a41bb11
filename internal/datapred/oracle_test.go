package datapred_test

import (
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/datapred"
	"dynloop/internal/datapred/datapredtest"
	"dynloop/internal/harness"
	"dynloop/internal/loopdet"
	"dynloop/internal/workload"
)

// TestCollectorMatchesReference diffs the run-granularity collector
// against the per-instruction reference on every workload at seeds 1 and
// 1009 and on builder.Random programs, at every delivery and CLS
// configuration of datapredtest.Diff: the Summaries must agree in every
// field, under the default caps and under caps small enough to overflow.
func TestCollectorMatchesReference(t *testing.T) {
	// The small caps overflow, so the order in which an iteration's
	// live-in locations and paths claim predictors is diffed too.
	caps := []datapred.Config{{}, {MaxMemPerLoop: 4, MaxPathsPerLoop: 2}}
	budget := uint64(25_000)
	if testing.Short() {
		budget = 5_000
	}
	for _, bm := range workload.All() {
		for _, seed := range []uint64{1, 1009} {
			u, err := bm.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range caps {
				iters, err := datapredtest.Diff(u.NewCPU, budget, cfg)
				if err != nil {
					t.Fatalf("%s seed %d, %+v: %v", bm.Name, seed, cfg, err)
				}
				if iters == 0 {
					t.Fatalf("%s seed %d: no iterations evaluated; the diff is vacuous", bm.Name, seed)
				}
			}
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		u, err := builder.Random(seed, builder.RandomOpt{})
		if err != nil {
			t.Fatalf("random seed %d: %v", seed, err)
		}
		for _, cfg := range caps {
			if _, err := datapredtest.Diff(u.NewCPU, budget, cfg); err != nil {
				t.Fatalf("random seed %d, %+v: %v", seed, cfg, err)
			}
		}
	}
}

// BenchmarkCollector runs Figure 8's streams (every workload at seed 1,
// 500k instructions, the paper's 16-entry CLS) under the collector and
// under the per-instruction reference; an op is all 18 streams,
// interpretation on the full event plane included.
func BenchmarkCollector(b *testing.B) {
	var units []*builder.Unit
	for _, bm := range workload.All() {
		u, err := bm.Build(1)
		if err != nil {
			b.Fatal(err)
		}
		units = append(units, u)
	}
	for _, leg := range []struct {
		name string
		mk   func() loopdet.Observer
	}{
		{"run", func() loopdet.Observer { return datapred.NewCollector(datapred.Config{}) }},
		{"reference", func() loopdet.Observer { return datapredtest.NewCollector(datapred.Config{}) }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, u := range units {
					if _, err := harness.Run(u, harness.Config{Budget: 500_000}, leg.mk()); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
