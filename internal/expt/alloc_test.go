package expt

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"dynloop/internal/freelist"
)

// maxWarmAllBytes bounds what one warm render of the whole evaluation
// allocates at 500k instructions over all 18 workloads, with
// maxWarmAllBytesRace its bound under the race detector. A warm render
// measured 0.80 to 0.94 MB, and 1.05 to 1.29 MB under the race
// detector, whose runtime drops Puts to the standard library's own
// sync.Pools (fmt's printers among them). Each bound leaves about 20%
// headroom; the render before free lists (package-level sync.Pools and
// per-cell runner bookkeeping) measured 1.3 MB.
const (
	maxWarmAllBytes     = 1100 << 10
	maxWarmAllBytesRace = 1500 << 10
)

// TestWarmAllAllocs pins that a render of the whole evaluation allocates
// little beyond what it keeps: the cell values, the runner's cache and
// recordings, and the rendered text. Three renders build every program
// and let the recycled passes grow their tables to fit every workload;
// then the median of three more renders, each through a fresh runner as
// `dynloop experiment all` runs it, must allocate at most
// maxWarmAllBytes. Afterwards every free list holds no more than its
// bound.
func TestWarmAllAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole evaluation six times")
	}
	limit := uint64(maxWarmAllBytes)
	if raceEnabled {
		limit = maxWarmAllBytesRace
	}
	cfg := Config{Budget: 500_000, Seed: 1, Parallel: 2}
	render := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := All(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for range 3 {
		render()
	}
	bytes := []uint64{render(), render(), render()}
	t.Logf("warm renders at 500k allocate %v bytes", bytes)
	sorted := slices.Clone(bytes)
	slices.Sort(sorted)
	if med := sorted[1]; med > limit {
		t.Errorf("a warm render allocates %d bytes (median of %v), want at most %d", med, bytes, limit)
	}
	for _, s := range freelist.Snapshot() {
		t.Logf("free list %s: %d of %d", s.Name, s.Len, s.Bound)
		if s.Len > s.Bound {
			t.Errorf("free list %s holds %d items after a render, over its bound of %d", s.Name, s.Len, s.Bound)
		}
	}
}
