package spec

import (
	"fmt"
	"testing"

	"dynloop/internal/harness"
	"dynloop/internal/loopdet"
	"dynloop/internal/looptab"
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

// TestSharedLETMatchesPrivate: engines that predict from one LET per
// capacity, kept current by a looptab.LETFeeder on the detector they
// share, compute exactly what engines with private LETs on private
// detectors compute. The detectors evict (capacity 2) and flush
// periodically, so an update the feeder made on an evicted or flushed
// execution, or an engine updating the shared LET as well, shows.
func TestSharedLETMatchesPrivate(t *testing.T) {
	dets := []loopdet.Config{{Capacity: 2, FlushInterval: 7919}, {Capacity: 16}}
	for _, bm := range workload.All() {
		u, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, dc := range dets {
			var passes []trace.Pass
			private := make([]*Engine, len(sharedConfigs))
			for i, cfg := range sharedConfigs {
				private[i] = NewEngine(cfg)
				d := loopdet.New(dc)
				d.AddObserver(private[i])
				passes = append(passes, d)
			}
			d := loopdet.New(dc)
			lets := map[int]*looptab.LET{}
			shared := make([]*Engine, len(sharedConfigs))
			for i, cfg := range sharedConfigs {
				let := lets[cfg.LETCapacity]
				if let == nil {
					let = looptab.NewLET(cfg.LETCapacity)
					lets[cfg.LETCapacity] = let
					d.AddObserver(&looptab.LETFeeder{LET: let})
				}
				shared[i] = NewSharedEngine(cfg, let)
				d.AddObserver(shared[i])
			}
			passes = append(passes, d)
			if _, err := harness.MultiRun(u, harness.MultiConfig{Budget: 60_000}, passes...); err != nil {
				t.Fatal(err)
			}
			for i, cfg := range sharedConfigs {
				what := fmt.Sprintf("%s, detector %+v, engine %+v", bm.Name, dc, cfg)
				if s, p := shared[i].Metrics(), private[i].Metrics(); s != p {
					t.Errorf("%s: shared LET %+v, private %+v", what, s, p)
				}
				// The tables themselves agree too, hit-test count included:
				// a second OnExecStart per execution changes no prediction,
				// only that count.
				sl, pl := shared[i].let, private[i].let
				sr, sn := sl.HitRatio()
				pr, pn := pl.HitRatio()
				if sr != pr || sn != pn || sl.Len() != pl.Len() || sl.Evictions() != pl.Evictions() {
					t.Errorf("%s: shared LET hit ratio %v of %d tests, %d entries, %d evictions; private %v of %d, %d, %d",
						what, sr, sn, sl.Len(), sl.Evictions(), pr, pn, pl.Len(), pl.Evictions())
				}
			}
		}
	}
}
