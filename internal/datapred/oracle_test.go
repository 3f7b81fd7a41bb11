package datapred_test

import (
	"runtime"
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

// FuzzDataTap diffs the collector on the data tap against the
// per-instruction reference on the full plane (datapredtest.DiffOne)
// over builder.Random programs at a random CLS capacity, periodic flush,
// batch size and budget, under the default caps and under caps small
// enough to overflow.
func FuzzDataTap(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(1024), uint32(50_000), false)
	f.Add(uint64(7), uint8(1), uint16(1), uint32(20_000), true)
	f.Add(uint64(1009), uint8(3), uint16(3), uint32(99_991), false)
	f.Fuzz(func(t *testing.T, seed uint64, clsSel uint8, batch uint16, budget uint32, small bool) {
		u, err := builder.Random(seed, builder.RandomOpt{})
		if err != nil {
			t.Skip(err)
		}
		dc := loopdet.Config{Capacity: []int{1, 2, 16, 0}[clsSel%4]}
		if clsSel&4 != 0 {
			dc.FlushInterval = 997
		}
		cfg := datapred.Config{}
		if small {
			cfg = datapred.Config{MaxMemPerLoop: 4, MaxPathsPerLoop: 2}
		}
		if _, err := datapredtest.DiffOne(u.NewCPU, uint64(budget%200_000)+1, dc, int(batch%4097), cfg); err != nil {
			t.Fatalf("random seed %d: %v", seed, err)
		}
	})
}

// TestFig8TraversalAllocsDoNotScale pins that a Figure 8 traversal of
// swim — interpreter, detector and collector on the control plane with
// the data tap — allocates the same bytes at 100k and at 500k
// instructions but for the program's data, and little beyond it: the
// tap's buffers are bounded and recycled, so nothing on the tap path
// grows with the stream or is allocated per traversal.
// Each budget's collector is warmed by a traversal first, so its tables
// already hold every loop and location the stream touches. The
// interpreter's memory allocates a page the first time the program
// touches it, so what a bare run of the same budget allocates is taken
// off each side.
func TestFig8TraversalAllocsDoNotScale(t *testing.T) {
	bm, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	u, err := bm.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	// bytesPer measures after an untimed call, which warms the free
	// lists.
	bytesPer := func(f func()) int64 {
		const runs = 5
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	tapBytes := func(budget uint64) int64 {
		c := datapred.NewCollector(datapred.Config{})
		traverse := func() {
			if _, err := harness.Run(u, harness.Config{Budget: budget}, c); err != nil {
				t.Fatal(err)
			}
		}
		traverse() // warm the collector and the segment table
		bare := bytesPer(func() {
			if _, err := u.NewCPU().Run(budget, nil); err != nil {
				t.Fatal(err)
			}
		})
		return bytesPer(traverse) - bare
	}
	// The slack covers the page map's growth, which a bare run and a
	// traversal may see at different moments. A traversal's own
	// allocations beyond its data — detector, broadcast, passes — stay
	// well under maxBeyond, and the tap's buffers alone would not: at
	// the default batch size they take about 100 KB.
	const slack, maxBeyond = 1 << 10, 8 << 10
	small, large := tapBytes(100_000), tapBytes(500_000)
	if large-small > slack || small > maxBeyond {
		t.Fatalf("a fig8 traversal of swim allocates %d bytes beyond its data at 100k instructions and %d at 500k, want the same and under %d", small, large, maxBeyond)
	}
}

// BenchmarkCollector runs Figure 8's streams (every workload at seed 1,
// 500k instructions, the paper's 16-entry CLS) under the collector on
// the data tap and under the per-instruction reference on the full
// plane, which the reference interpreter produces; an op is all 18
// streams, interpretation included.
func BenchmarkCollector(b *testing.B) {
	const budget = 500_000
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
		run  func(u *builder.Unit) error
	}{
		{"run", func(u *builder.Unit) error {
			_, err := harness.Run(u, harness.Config{Budget: budget}, datapred.NewCollector(datapred.Config{}))
			return err
		}},
		{"reference", func(u *builder.Unit) error {
			ref := datapredtest.NewCollector(datapred.Config{})
			det := harness.NewObserverPass(0, ref)
			_, err := u.NewCPU().Run(budget, ref.Feed(det))
			det.Flush()
			return err
		}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, u := range units {
					if err := leg.run(u); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestCollectorResetMatchesFresh: a collector Reset in the middle of a
// traversal, with frames still active, and reused on the next workload
// under other caps computes the Summary a fresh collector does. The
// loop states, frames and tables it recycles carry nothing over.
func TestCollectorResetMatchesFresh(t *testing.T) {
	const budget = 50_000
	caps := []datapred.Config{{}, {MaxMemPerLoop: 4, MaxPathsPerLoop: 2}}
	recycled := datapred.NewCollector(datapred.Config{})
	for i, bm := range workload.All() {
		u, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := caps[i%len(caps)]
		fresh := new(datapred.Collector)
		fresh.Reset(cfg)
		if _, err := harness.Run(u, harness.Config{Budget: budget}, fresh); err != nil {
			t.Fatal(err)
		}
		recycled.Reset(cfg)
		if _, err := harness.Run(u, harness.Config{Budget: budget}, recycled); err != nil {
			t.Fatal(err)
		}
		if got, want := recycled.Summary(), fresh.Summary(); got != want {
			t.Fatalf("%s: recycled collector %+v, fresh %+v", bm.Name, got, want)
		}
		// Leave the collector mid-run, frames active, for the next Reset.
		recycled.Reset(datapred.Config{})
		det := loopdet.New(loopdet.Config{Capacity: 16})
		det.AddObserver(recycled)
		if _, err := u.NewCPU().Run(budget/3, det); err != nil {
			t.Fatal(err)
		}
	}
}
