package workload

import (
	"sync"

	"dynloop/internal/builder"
)

// UnitCacheSize bounds the process-wide cache of built programs. A
// render of the paper's evaluation uses one seed, so it needs one entry
// per registered benchmark; the bound leaves headroom for a second seed's
// worth of the hot ones. It is fixed: a daemon serving requests at ever
// new seeds evicts the least recently used unit instead of growing.
const UnitCacheSize = 32

type unitKey struct {
	bench string
	seed  uint64
}

// unitEntry is one cached build. ready closes once u and err are set, so
// concurrent callers asking for the same key wait for one build instead
// of each building.
type unitEntry struct {
	ready chan struct{}
	u     *builder.Unit
	err   error
	used  uint64 // recency stamp for LRU eviction
}

var units = struct {
	sync.Mutex
	m    map[unitKey]*unitEntry
	tick uint64
}{m: make(map[unitKey]*unitEntry)}

// cached wraps a benchmark's build function with the program cache:
// builds are deterministic in (benchmark, seed), and a Unit is immutable,
// so every caller of the same key can share one Unit (and with it one
// predecoded micro-op array). Failed builds are not cached.
func cached(name string, build func(uint64) (*builder.Unit, error)) func(uint64) (*builder.Unit, error) {
	return func(seed uint64) (*builder.Unit, error) {
		k := unitKey{name, seed}
		units.Lock()
		units.tick++
		if e, ok := units.m[k]; ok {
			e.used = units.tick
			units.Unlock()
			<-e.ready
			return e.u, e.err
		}
		if len(units.m) >= UnitCacheSize {
			evictLRU()
		}
		e := &unitEntry{ready: make(chan struct{}), used: units.tick}
		units.m[k] = e
		units.Unlock()

		e.u, e.err = build(seed)
		close(e.ready)
		if e.err != nil {
			units.Lock()
			if units.m[k] == e {
				delete(units.m, k)
			}
			units.Unlock()
		}
		return e.u, e.err
	}
}

// evictLRU drops the least recently used entry; the caller holds the
// lock. An entry still being built may be evicted: its waiters hold the
// entry itself and are unaffected.
func evictLRU() {
	var victim unitKey
	oldest := ^uint64(0)
	for k, e := range units.m {
		if e.used < oldest {
			victim, oldest = k, e.used
		}
	}
	delete(units.m, victim)
}

// CachedUnits returns the number of programs the cache holds; it never
// exceeds UnitCacheSize.
func CachedUnits() int {
	units.Lock()
	defer units.Unlock()
	return len(units.m)
}
