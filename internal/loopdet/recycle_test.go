package loopdet_test

import (
	"fmt"
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/harness"
	"dynloop/internal/loopdet"
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
