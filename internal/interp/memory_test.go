package interp

import "testing"

// TestMemoryCacheCounters pins the page-cache accounting: the first
// touch of a page misses, later touches of the same page hit, and the
// widened direct-mapped set keeps several distant hot pages resident at
// once instead of thrashing one entry.
func TestMemoryCacheCounters(t *testing.T) {
	var m Memory

	// A load from a never-written page is a miss and installs nothing.
	if v := m.Load(0); v != 0 {
		t.Fatalf("unwritten load = %d", v)
	}
	if h, ms := m.CacheStats(); h != 0 || ms != 1 {
		t.Fatalf("after cold load: hits=%d misses=%d, want 0/1", h, ms)
	}
	if v := m.Load(0); v != 0 {
		t.Fatalf("unwritten load = %d", v)
	}
	if h, ms := m.CacheStats(); h != 0 || ms != 2 {
		t.Fatalf("unwritten page must keep missing: hits=%d misses=%d", h, ms)
	}

	// First store misses (allocates the page), the rest of the page hits.
	m.Store(0, 1)
	m.Store(8, 2)
	m.Load(0)
	if h, ms := m.CacheStats(); h != 2 || ms != 3 {
		t.Fatalf("same-page traffic: hits=%d misses=%d, want 2/3", h, ms)
	}

	// Interleaved traffic across distant regions (the slot/stack/heap
	// pattern that motivated widening the cache) stays resident: one miss
	// per region, hits thereafter. The cache is direct-mapped, so pick
	// three far-apart bases whose pages land in distinct slots (and off
	// page 0, which is already resident above).
	var regions []uint64
	seen := map[uint64]bool{cacheIdx(0): true}
	for base := uint64(1 << 20); len(regions) < 3; base += 1 << 20 {
		if idx := cacheIdx(base >> pageBits); !seen[idx] {
			seen[idx] = true
			regions = append(regions, base)
		}
	}
	for _, base := range regions {
		m.Store(base, int64(base))
	}
	h0, m0 := m.CacheStats()
	for round := 0; round < 4; round++ {
		for _, base := range regions {
			if v := m.Load(base); v != int64(base) {
				t.Fatalf("region %#x read %d", base, v)
			}
		}
	}
	h1, m1 := m.CacheStats()
	if m1 != m0 {
		t.Fatalf("interleaved hot regions thrashed the cache: %d extra misses", m1-m0)
	}
	if h1-h0 != uint64(4*len(regions)) {
		t.Fatalf("interleaved hot regions: %d hits, want %d", h1-h0, 4*len(regions))
	}

	// Reset drops the pages and the cache but preserves the lifetime
	// counters.
	m.Reset()
	if h, ms := m.CacheStats(); h != h1 || ms != m1 {
		t.Fatalf("Reset clobbered counters: %d/%d vs %d/%d", h, ms, h1, m1)
	}
	if m.Footprint() != 0 {
		t.Fatalf("Reset left %d pages", m.Footprint())
	}
	// And the cache is actually empty: the next access misses.
	m.Load(0)
	if _, ms := m.CacheStats(); ms != m1+1 {
		t.Fatalf("post-Reset access did not miss")
	}

	// The pages went back to the pool zeroed: a new Memory that takes
	// them reads zero wherever it has not written.
	var fresh Memory
	for _, base := range regions {
		fresh.Store(base+1, -1)
		for off := uint64(0); off < pageSize; off++ {
			if v := fresh.Load(base&^(pageSize-1) + off); v != 0 && base&^(pageSize-1)+off != base+1 {
				t.Fatalf("a recycled page reads %d at %#x", v, base&^(pageSize-1)+off)
			}
		}
	}
}
