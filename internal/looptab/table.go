// Package looptab implements the paper's loop-characterisation tables
// (§2.3): the Loop Execution Table (LET) and the Loop Iteration Table
// (LIT), both associative with LRU replacement, plus the hit-ratio
// tracking of §2.3.1 (Figure 4) and the iteration-count prediction the
// STR speculation policy consumes (§3.1.2).
package looptab

import "dynloop/internal/isa"

// Table is an associative table keyed by loop target address with LRU
// replacement. V is the per-entry payload. Capacity 0 means unbounded.
//
// The entries live in one slab and form the recency list by slab index,
// so an insertion allocates nothing of its own, and Reset empties the
// table keeping both the slab and the index map for the next use.
type Table[V any] struct {
	capacity   int
	m          map[isa.Addr]int32 // key to slab index
	slab       []node[V]
	head, tail int32 // slab indices, head most recently used; nilNode when empty
	evictions  uint64
	// OnEvict, when non-nil, is called with the key and value being
	// evicted, before removal.
	OnEvict func(k isa.Addr, v *V)
}

// nilNode is the null slab index.
const nilNode = -1

type node[V any] struct {
	key        isa.Addr
	prev, next int32
	val        V
}

// NewTable returns an empty table. Capacity 0 means unbounded.
func NewTable[V any](capacity int) *Table[V] {
	t := &Table[V]{}
	t.Reset(capacity)
	return t
}

// Reset empties the table and sets its capacity (0 = unbounded), keeping
// the storage it grew; the eviction count restarts at zero and OnEvict
// is cleared.
func (t *Table[V]) Reset(capacity int) {
	t.capacity = capacity
	if t.m == nil {
		t.m = make(map[isa.Addr]int32)
	} else {
		clear(t.m)
	}
	clear(t.slab) // drop references held by stale values
	t.slab = t.slab[:0]
	t.head, t.tail = nilNode, nilNode
	t.evictions = 0
	t.OnEvict = nil
}

// Len returns the number of resident entries.
func (t *Table[V]) Len() int { return len(t.m) }

// Capacity returns the configured capacity (0 = unbounded).
func (t *Table[V]) Capacity() int { return t.capacity }

// Evictions returns how many entries have been evicted.
func (t *Table[V]) Evictions() uint64 { return t.evictions }

// Get returns the value for k without changing recency, or nil.
func (t *Table[V]) Get(k isa.Addr) *V {
	i, ok := t.m[k]
	if !ok {
		return nil
	}
	return &t.slab[i].val
}

// Touch marks k most recently used and returns its value, or nil if
// absent.
func (t *Table[V]) Touch(k isa.Addr) *V {
	i, ok := t.m[k]
	if !ok {
		return nil
	}
	t.moveToFront(i)
	return &t.slab[i].val
}

// Insert adds a fresh zero-valued entry for k as most recently used,
// evicting the least recently used entry if the table is full, and
// returns the new value. If k is already resident its value is reset to
// zero and it becomes most recently used. A full table reuses the
// evicted entry's slot, as a hardware table does, and the slab may move
// when it grows, so value pointers must not be kept across an Insert.
func (t *Table[V]) Insert(k isa.Addr) *V {
	if i, ok := t.m[k]; ok {
		var zero V
		t.slab[i].val = zero
		t.moveToFront(i)
		return &t.slab[i].val
	}
	i := int32(nilNode)
	if t.capacity > 0 && len(t.m) >= t.capacity {
		i = t.evictLRU()
	}
	if i == nilNode {
		i = int32(len(t.slab))
		t.slab = append(t.slab, node[V]{})
	}
	t.slab[i] = node[V]{key: k}
	t.m[k] = i
	t.pushFront(i)
	return &t.slab[i].val
}

// Victim returns the key and value that Insert would evict next, or ok
// false if no eviction would occur. It lets callers implement alternative
// insertion policies (the §2.3.2 nesting-aware inhibition ablation).
func (t *Table[V]) Victim() (k isa.Addr, v *V, ok bool) {
	if t.capacity == 0 || len(t.m) < t.capacity || t.tail == nilNode {
		return 0, nil, false
	}
	n := &t.slab[t.tail]
	return n.key, &n.val, true
}

// Keys returns the resident keys from most to least recently used.
func (t *Table[V]) Keys() []isa.Addr {
	out := make([]isa.Addr, 0, len(t.m))
	for i := t.head; i != nilNode; i = t.slab[i].next {
		out = append(out, t.slab[i].key)
	}
	return out
}

// evictLRU removes the least recently used entry and returns its slot
// (nilNode when the table is empty) for the caller to reuse.
func (t *Table[V]) evictLRU() int32 {
	i := t.tail
	if i == nilNode {
		return nilNode
	}
	v := &t.slab[i]
	if t.OnEvict != nil {
		t.OnEvict(v.key, &v.val)
	}
	t.unlink(i)
	delete(t.m, v.key)
	t.evictions++
	return i
}

func (t *Table[V]) pushFront(i int32) {
	n := &t.slab[i]
	n.prev = nilNode
	n.next = t.head
	if t.head != nilNode {
		t.slab[t.head].prev = i
	}
	t.head = i
	if t.tail == nilNode {
		t.tail = i
	}
}

func (t *Table[V]) unlink(i int32) {
	n := &t.slab[i]
	if n.prev != nilNode {
		t.slab[n.prev].next = n.next
	} else {
		t.head = n.next
	}
	if n.next != nilNode {
		t.slab[n.next].prev = n.prev
	} else {
		t.tail = n.prev
	}
	n.prev, n.next = nilNode, nilNode
}

func (t *Table[V]) moveToFront(i int32) {
	if t.head == i {
		return
	}
	t.unlink(i)
	t.pushFront(i)
}
