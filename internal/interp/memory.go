package interp

import "dynloop/internal/freelist"

// pageBits selects the page granularity of the sparse memory: 512 words.
const pageBits = 9

const pageSize = 1 << pageBits

// The page cache is a small direct-mapped set (a software TLB). One
// entry was enough when a workload touched a single region, but builder
// programs interleave three: the static counter slots (slotBase), the
// software stack (StackBase) and the heap (HeapBase). A loop latch
// alternates slot and heap pages every few instructions, so a one-entry
// cache thrashed straight back to the page map. Eight entries indexed
// by a multiplicative hash keep all the concurrently hot pages resident.
const (
	memCacheBits = 3
	memCacheSize = 1 << memCacheBits
)

// cacheIdx maps a page key to its direct-mapped slot. The region bases
// are large powers of two, so their page keys share low bits; the
// Fibonacci hash spreads them across slots where key&(size-1) would
// collide them all into slot 0.
func cacheIdx(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> (64 - memCacheBits)
}

// memSlot is one direct-mapped page-cache entry; it is valid when page
// is non-nil.
type memSlot struct {
	key  uint64
	page *[pageSize]int64
}

// Memory is a sparse, paged 64-bit word memory. Unwritten locations read
// as zero. The zero value is ready to use.
type Memory struct {
	pages map[uint64]*[pageSize]int64
	// slots is the direct-mapped page cache.
	slots [memCacheSize]memSlot
	// hits counts accesses served by the page cache; misses counts
	// accesses that fell through to the page map (including reads of
	// never-written pages). Read them with CacheStats.
	hits   uint64
	misses uint64
}

// Load returns the word at addr. The cache-hit fast path is small
// enough to inline into the interpreter loop; misses take loadSlow.
func (m *Memory) Load(addr uint64) int64 {
	key := addr >> pageBits
	s := &m.slots[cacheIdx(key)]
	if s.page != nil && s.key == key {
		m.hits++
		return s.page[addr&(pageSize-1)]
	}
	return m.loadSlow(addr, key, s)
}

func (m *Memory) loadSlow(addr, key uint64, s *memSlot) int64 {
	m.misses++
	p, ok := m.pages[key]
	if !ok {
		return 0
	}
	s.key, s.page = key, p
	return p[addr&(pageSize-1)]
}

// Store writes the word at addr; like Load it splits into an inlinable
// cache-hit path and a slow path.
func (m *Memory) Store(addr uint64, v int64) {
	key := addr >> pageBits
	s := &m.slots[cacheIdx(key)]
	if s.page != nil && s.key == key {
		m.hits++
		s.page[addr&(pageSize-1)] = v
		return
	}
	m.storeSlow(addr, key, s, v)
}

func (m *Memory) storeSlow(addr, key uint64, s *memSlot, v int64) {
	m.misses++
	if m.pages == nil {
		m.pages = make(map[uint64]*[pageSize]int64)
	}
	p, ok := m.pages[key]
	if !ok {
		p = freePages.Get()
		m.pages[key] = p
	}
	s.key, s.page = key, p
	p[addr&(pageSize-1)] = v
}

// freePages recycles data pages, zeroed, between Memories: a traversal
// runs a fresh CPU, and its pages go back when the harness releases it
// (see CPU.Release), so the next traversal's memory starts from them.
// The bound, 4 MiB of pages, covers the largest footprint of a
// workload at the default 4M-instruction budget (800 pages) with room
// for a concurrent traversal.
var freePages = freelist.New[[pageSize]int64]("interp.pages", 1024)

// Reset drops all pages, handing them back zeroed for any Memory to
// reuse, and empties the page cache; the page map keeps its storage.
// The hit/miss counters are preserved (they describe the Memory's
// lifetime).
func (m *Memory) Reset() {
	for _, p := range m.pages {
		clear(p[:])
		freePages.Put(p)
	}
	clear(m.pages)
	m.slots = [memCacheSize]memSlot{}
}

// CacheStats is a debug accessor for the page-cache counters: hits is
// the number of loads/stores served by the direct-mapped set, misses the
// number that took the page-map path (a miss on a never-written page
// does not install anything and will miss again).
func (m *Memory) CacheStats() (hits, misses uint64) { return m.hits, m.misses }

// Footprint returns the number of resident pages, for diagnostics.
func (m *Memory) Footprint() int { return len(m.pages) }
