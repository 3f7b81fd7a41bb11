package loopdet_test

import (
	"fmt"
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/datapred"
	"dynloop/internal/harness"
	"dynloop/internal/loopdet"
	"dynloop/internal/loopstats"
	"dynloop/internal/looptab"
	"dynloop/internal/spec"
	"dynloop/internal/taskpred"
	"dynloop/internal/workload"
)

// recycleCapacities are the CLS sizes the recycling tests run at, in
// the harness convention: 1 evicts on nearly every push, 16 is the
// paper's size, and -1 is unbounded.
var recycleCapacities = []int{1, 16, -1}

// checkRecycling runs u under a detector with an AliasCheck attached
// and fails on any violation of the Exec lifetime contract.
func checkRecycling(t *testing.T, what string, u *builder.Unit, budget uint64, capacity int) *loopdet.AliasCheck {
	t.Helper()
	a := loopdet.NewAliasCheck()
	if _, err := harness.Run(u, harness.Config{Budget: budget, CLSCapacity: capacity}, a); err != nil {
		t.Fatalf("%s at CLS capacity %d: %v", what, capacity, err)
	}
	if err := a.Err(); err != nil {
		t.Fatalf("%s at CLS capacity %d: %v", what, capacity, err)
	}
	return a
}

// TestExecRecyclingWorkloads: on every workload, recycled executions
// never alias a live one, keep their identity while live and get unique
// IDs — including through the eviction path of a one-entry CLS.
func TestExecRecyclingWorkloads(t *testing.T) {
	for _, bm := range workload.All() {
		u, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range recycleCapacities {
			a := checkRecycling(t, bm.Name, u, 200_000, c)
			if a.Starts > 1 && a.Reused == 0 {
				t.Errorf("%s at CLS capacity %d: %d executions and none reused a retired Exec", bm.Name, c, a.Starts)
			}
		}
	}
}

// TestExecRecyclingRandomPrograms runs the same check over random
// structured programs.
func TestExecRecyclingRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		u, err := builder.Random(seed, builder.RandomOpt{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range recycleCapacities {
			checkRecycling(t, fmt.Sprintf("random seed %d", seed), u, 100_000, c)
		}
	}
}

// TestSharedDetectorSequence: an observer sees the same event sequence
// on a detector it shares with speculation engines (an engine and a
// two-lane bank), LET/LIT trackers, Table-1, next-task and data-speculation
// collectors as on a detector of its own — the contract that lets a
// fused group's cells share one CLS. The shared detector runs on the
// full event plane (the data-speculation collector reads it) and the
// private one on the control plane.
func TestSharedDetectorSequence(t *testing.T) {
	for _, bm := range workload.All() {
		u, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range recycleCapacities {
			private := checkRecycling(t, bm.Name, u, 100_000, c)

			bank := spec.NewBank(0)
			bank.Add(spec.Config{TUs: 8, Policy: spec.STR()})
			bank.Add(spec.Config{TUs: 2, Policy: spec.Idle()})
			shared := loopdet.NewAliasCheck()
			observers := []loopdet.Observer{
				spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STRn(3)}),
				bank,
				shared,
				looptab.NewTracker(4, 4),
				loopstats.NewCollector(),
				taskpred.New(taskpred.Config{}),
				datapred.NewCollector(datapred.Config{}),
			}
			if _, err := harness.Run(u, harness.Config{Budget: 100_000, CLSCapacity: c}, observers...); err != nil {
				t.Fatal(err)
			}
			if err := shared.Err(); err != nil {
				t.Fatalf("%s at CLS capacity %d, shared: %v", bm.Name, c, err)
			}
			if shared.Starts != private.Starts || shared.Sequence() != private.Sequence() {
				t.Errorf("%s at CLS capacity %d: shared detector showed %d executions (digest %x), a private one %d (%x)",
					bm.Name, c, shared.Starts, shared.Sequence(), private.Starts, private.Sequence())
			}
		}
	}
}

// TestDetectorResetMatchesFresh: a detector Reset in the middle of a
// run, with executions on its stack and an observer attached, and then
// given another capacity and a new observer, shows that observer the
// event sequence and statistics a new detector shows: IDs restart, the
// recycled executions are clean, and the dropped observer hears nothing
// more.
func TestDetectorResetMatchesFresh(t *testing.T) {
	const budget = 100_000
	for _, bm := range workload.All() {
		u, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		d := loopdet.New(loopdet.Config{Capacity: 2})
		dropped := loopdet.NewAliasCheck()
		d.AddObserver(dropped)
		if _, err := u.NewCPU().Run(budget/3, d); err != nil { // no flush
			t.Fatal(err)
		}
		heard := dropped.Starts
		for _, cfg := range []loopdet.Config{{Capacity: 16}, {}, {Capacity: 1, FlushInterval: 4099}} {
			run := func(d *loopdet.Detector) *loopdet.AliasCheck {
				a := loopdet.NewAliasCheck()
				d.AddObserver(a)
				if _, err := u.NewCPU().Run(budget, d); err != nil {
					t.Fatal(err)
				}
				d.Flush()
				if err := a.Err(); err != nil {
					t.Fatalf("%s, %+v: %v", bm.Name, cfg, err)
				}
				return a
			}
			fresh := new(loopdet.Detector)
			fresh.Reset(cfg)
			want := run(fresh)
			d.Reset(cfg)
			got := run(d)
			if got.Starts != want.Starts || got.Sequence() != want.Sequence() || d.Stats() != fresh.Stats() {
				t.Errorf("%s, %+v: recycled detector showed %d executions (digest %x, stats %+v), a new one %d (%x, %+v)",
					bm.Name, cfg, got.Starts, got.Sequence(), d.Stats(), want.Starts, want.Sequence(), fresh.Stats())
			}
		}
		if dropped.Starts != heard {
			t.Errorf("%s: an observer dropped by Reset heard %d more executions", bm.Name, dropped.Starts-heard)
		}
	}
}
