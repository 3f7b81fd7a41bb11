package workload

import (
	"sync"
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/trace"
)

// TestUnitCacheSharesUnits: repeated builds of one (benchmark, seed)
// share one Unit, distinct seeds do not, and the bound fits a render's
// one unit per registered benchmark.
func TestUnitCacheSharesUnits(t *testing.T) {
	if UnitCacheSize < len(All()) {
		t.Fatalf("UnitCacheSize %d cannot hold one unit per benchmark (%d)", UnitCacheSize, len(All()))
	}
	bm, _ := ByName("li")
	a, err := bm.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := bm.Build(3)
	c, _ := bm.Build(4)
	if a != b {
		t.Fatal("second build of the same seed returned a different unit")
	}
	if a == c {
		t.Fatal("builds of different seeds share a unit")
	}
}

// TestUnitCacheBound: building more distinct seeds than the bound keeps
// the cache at its bound and evicts least recently used units first.
func TestUnitCacheBound(t *testing.T) {
	bm, _ := ByName("compress")
	hot, err := bm.Build(500)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1000); seed < 1000+2*UnitCacheSize; seed++ {
		if _, err := bm.Build(seed); err != nil {
			t.Fatal(err)
		}
		if again, _ := bm.Build(500); again != hot {
			t.Fatalf("recently used unit evicted after seed %d", seed)
		}
		if n := CachedUnits(); n > UnitCacheSize {
			t.Fatalf("cache holds %d units, bound is %d", n, UnitCacheSize)
		}
	}
}

// TestConcurrentCPUsShareUnit runs several CPUs at once from one cached
// Unit — one shared predecoded program — and requires each to produce
// the stream a lone CPU does. Under -race it also proves the shared
// state is only read.
func TestConcurrentCPUsShareUnit(t *testing.T) {
	const budget = 100_000
	bm, _ := ByName("gcc")
	var wg sync.WaitGroup
	units := make([]*builder.Unit, 4)
	for i := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			units[i], _ = bm.Build(77)
		}()
	}
	wg.Wait()
	u := units[0]
	for _, v := range units {
		if v == nil || v != u {
			t.Fatal("concurrent builds of one key did not share one unit")
		}
	}
	hash := func() uint64 {
		h := trace.NewHash()
		if _, err := u.NewCPU().Run(budget, h); err != nil {
			t.Error(err)
		}
		return h.Sum
	}
	want := hash()
	got := make([]uint64, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = hash()
		}()
	}
	wg.Wait()
	for i, h := range got {
		if h != want {
			t.Fatalf("CPU %d: stream hash %x, lone CPU %x", i, h, want)
		}
	}
}
