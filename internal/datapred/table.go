package datapred

import "math/bits"

// fibMul is 2^64 divided by the golden ratio. Multiplying a key by it and
// keeping the top bits (Fibonacci hashing) spreads the strided addresses
// of array walks evenly over a power-of-two table.
const fibMul = 0x9E3779B97F4A7C15

// table is a hash table from uint64 keys to values of type V. The
// entries, values included, sit in one slice in insertion order, so a new
// key costs no allocation of its own; an open-addressed, linearly probed
// index of entry positions finds them. It only grows; its users bound
// how many keys it holds.
type table[V any] struct {
	entries []entry[V]
	index   []int32 // 1 + position in entries; 0 is an empty slot
	shift   uint    // 64 - log2(len(index))
}

type entry[V any] struct {
	key uint64
	val V
}

// get returns key's value, or nil when key is absent.
func (t *table[V]) get(key uint64) *V {
	if len(t.entries) == 0 {
		return nil
	}
	mask := uint64(len(t.index) - 1)
	for i := key * fibMul >> t.shift; ; i = (i + 1) & mask {
		p := t.index[i]
		if p == 0 {
			return nil
		}
		if e := &t.entries[p-1]; e.key == key {
			return &e.val
		}
	}
}

// add inserts key, which must be absent, with the zero value and returns
// that value. The pointer is valid until the next add.
func (t *table[V]) add(key uint64) *V {
	if len(t.entries) == cap(t.entries) {
		// Double explicitly: append grows large slices by a quarter,
		// which would copy the entries of a big table many times over.
		grown := make([]entry[V], len(t.entries), max(2*cap(t.entries), 1))
		copy(grown, t.entries)
		t.entries = grown
	}
	t.entries = append(t.entries, entry[V]{key: key})
	if n := len(t.entries); 4*n > 3*len(t.index) {
		t.grow()
	} else {
		t.place(key, int32(n))
	}
	return &t.entries[len(t.entries)-1].val
}

// place stores position p at the first free slot of key's probe sequence.
func (t *table[V]) place(key uint64, p int32) {
	mask := uint64(len(t.index) - 1)
	i := key * fibMul >> t.shift
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = p
}

// grow doubles the index and reindexes every entry.
func (t *table[V]) grow() {
	size := max(2*len(t.index), 2)
	t.index = make([]int32, size)
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for p := range t.entries {
		t.place(t.entries[p].key, int32(p+1))
	}
}

// addrSet is the set of memory locations one iteration has touched. Each
// slot carries the generation that filled it, and only slots of the
// current generation are members, so clear empties the set in O(1) and a
// warm set never reallocates. A set must be cleared before first use.
type addrSet struct {
	slots []addrSlot
	n     int
	shift uint // 64 - log2(len(slots))
	gen   uint32
}

type addrSlot struct {
	addr uint64
	gen  uint32
}

// clear empties the set.
func (s *addrSet) clear() {
	s.n = 0
	s.gen++
	if s.gen == 0 {
		// Wrapped: slots four billion generations old would look current.
		clear(s.slots)
		s.gen = 1
	}
}

// add inserts addr and reports whether it was absent.
func (s *addrSet) add(addr uint64) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := addr * fibMul >> s.shift; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			sl.addr, sl.gen = addr, s.gen
			s.n++
			return true
		}
		if sl.addr == addr {
			return false
		}
	}
}

func (s *addrSet) grow() {
	old := s.slots
	size := max(2*len(old), 4)
	s.slots = make([]addrSlot, size)
	s.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, o := range old {
		if o.gen != s.gen {
			continue
		}
		i := o.addr * fibMul >> s.shift
		for s.slots[i].gen == s.gen {
			i = (i + 1) & mask
		}
		s.slots[i] = o
	}
}
