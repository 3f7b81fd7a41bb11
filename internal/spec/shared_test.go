package spec

import (
	"fmt"
	"testing"

	"dynloop/internal/harness"
	"dynloop/internal/loopdet"
	"dynloop/internal/trace"
	"dynloop/internal/workload"
)

// sharedConfigs are engine configurations that differ in everything a
// LET shared between them must not depend on: policy, TU count, nest
// rule, exclusion, and two LET capacities.
var sharedConfigs = []Config{
	{TUs: 4, Policy: STR()},
	{TUs: 4, Policy: STRn(3)},
	{TUs: 16, Policy: STRn(1), NestRule: NestRuleStatic},
	{TUs: 2, Policy: Idle()},
	{TUs: 0, Policy: STR()},
	{TUs: 8, Policy: STR(), Exclude: true},
	{TUs: 4, Policy: STR(), LETCapacity: 4},
	{TUs: 4, Policy: STRn(2), LETCapacity: 4},
}

// TestSharedLETMatchesPrivate: the lanes of banks that share one
// detector, each bank predicting from one LET per capacity, compute
// exactly what reference engines with private LETs on private detectors
// compute, and the banks' LETs end equal to the private ones. The
// detectors evict (capacity 2) and flush periodically, so an update the
// bank made on an evicted or flushed execution, or one lane's state
// leaking into another's, shows.
func TestSharedLETMatchesPrivate(t *testing.T) {
	dets := []loopdet.Config{{Capacity: 2, FlushInterval: 7919}, {Capacity: 16}}
	for _, bm := range workload.All() {
		u, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, dc := range dets {
			var passes []trace.Pass
			private := make([]*refEngine, len(sharedConfigs))
			for i, cfg := range sharedConfigs {
				private[i] = newRefEngine(cfg)
				d := loopdet.New(dc)
				d.AddObserver(private[i])
				passes = append(passes, d)
			}
			d := loopdet.New(dc)
			banks := map[int]*Bank{}
			lanes := make([]Lane, len(sharedConfigs))
			for i, cfg := range sharedConfigs {
				b := banks[cfg.LETCapacity]
				if b == nil {
					b = NewBank(cfg.LETCapacity)
					banks[cfg.LETCapacity] = b
					d.AddObserver(b)
				}
				lanes[i] = b.Add(cfg)
			}
			passes = append(passes, d)
			if _, err := harness.MultiRun(u, harness.MultiConfig{Budget: 60_000}, passes...); err != nil {
				t.Fatal(err)
			}
			for i, cfg := range sharedConfigs {
				what := fmt.Sprintf("%s, detector %+v, engine %+v", bm.Name, dc, cfg)
				if s, p := lanes[i].Metrics(), private[i].Metrics(); s != p {
					t.Errorf("%s: bank lane %+v, private %+v", what, s, p)
				}
				// The tables themselves agree too, hit-test count included.
				sl, pl := banks[cfg.LETCapacity].let, private[i].let
				sr, sn := sl.HitRatio()
				pr, pn := pl.HitRatio()
				if sr != pr || sn != pn || sl.Len() != pl.Len() || sl.Evictions() != pl.Evictions() {
					t.Errorf("%s: bank LET hit ratio %v of %d tests, %d entries, %d evictions; private %v of %d, %d, %d",
						what, sr, sn, sl.Len(), sl.Evictions(), pr, pn, pl.Len(), pl.Evictions())
				}
			}
		}
	}
}

// TestBankRejectsMismatchedLane: a lane must predict from the bank's
// LET capacity and join before the first event.
func TestBankRejectsMismatchedLane(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	b := NewBank(4)
	mustPanic("LET capacity 0 on a bank of 4", func() { b.Add(Config{TUs: 4, Policy: STR()}) })
	b.Add(Config{TUs: 4, Policy: STR(), LETCapacity: 4})
	b.Retired(10, 9)
	mustPanic("lane after an event", func() { b.Add(Config{TUs: 2, Policy: Idle(), LETCapacity: 4}) })
}
