// Package looptab implements the paper's loop-characterisation tables
// (§2.3): the Loop Execution Table (LET) and the Loop Iteration Table
// (LIT), both associative with LRU replacement, plus the hit-ratio
// tracking of §2.3.1 (Figure 4) and the iteration-count prediction the
// STR speculation policy consumes (§3.1.2).
package looptab

import "dynloop/internal/isa"

// Table is an associative table keyed by loop target address with LRU
// replacement. V is the per-entry payload. Capacity 0 means unbounded.
type Table[V any] struct {
	capacity   int
	m          map[isa.Addr]*node[V]
	head, tail *node[V] // head is most recently used
	evictions  uint64
	// OnEvict, when non-nil, is called with the key and value being
	// evicted, before removal.
	OnEvict func(k isa.Addr, v *V)
}

type node[V any] struct {
	key        isa.Addr
	prev, next *node[V]
	val        V
}

// NewTable returns an empty table. Capacity 0 means unbounded.
func NewTable[V any](capacity int) *Table[V] {
	return &Table[V]{capacity: capacity, m: make(map[isa.Addr]*node[V])}
}

// Len returns the number of resident entries.
func (t *Table[V]) Len() int { return len(t.m) }

// Capacity returns the configured capacity (0 = unbounded).
func (t *Table[V]) Capacity() int { return t.capacity }

// Evictions returns how many entries have been evicted.
func (t *Table[V]) Evictions() uint64 { return t.evictions }

// Get returns the value for k without changing recency, or nil.
func (t *Table[V]) Get(k isa.Addr) *V {
	n, ok := t.m[k]
	if !ok {
		return nil
	}
	return &n.val
}

// Touch marks k most recently used and returns its value, or nil if
// absent.
func (t *Table[V]) Touch(k isa.Addr) *V {
	n, ok := t.m[k]
	if !ok {
		return nil
	}
	t.moveToFront(n)
	return &n.val
}

// Insert adds a fresh zero-valued entry for k as most recently used,
// evicting the least recently used entry if the table is full, and
// returns the new value. If k is already resident its value is reset to
// zero and it becomes most recently used. A full table reuses the
// evicted entry's storage, as a hardware table reuses its slot, so value
// pointers must not be kept across an Insert.
func (t *Table[V]) Insert(k isa.Addr) *V {
	if n, ok := t.m[k]; ok {
		var zero V
		n.val = zero
		t.moveToFront(n)
		return &n.val
	}
	var n *node[V]
	if t.capacity > 0 && len(t.m) >= t.capacity {
		n = t.evictLRU()
	}
	if n == nil {
		n = new(node[V])
	}
	*n = node[V]{key: k}
	t.m[k] = n
	t.pushFront(n)
	return &n.val
}

// Victim returns the key and value that Insert would evict next, or ok
// false if no eviction would occur. It lets callers implement alternative
// insertion policies (the §2.3.2 nesting-aware inhibition ablation).
func (t *Table[V]) Victim() (k isa.Addr, v *V, ok bool) {
	if t.capacity == 0 || len(t.m) < t.capacity || t.tail == nil {
		return 0, nil, false
	}
	return t.tail.key, &t.tail.val, true
}

// Remove deletes k if present.
func (t *Table[V]) Remove(k isa.Addr) {
	n, ok := t.m[k]
	if !ok {
		return
	}
	t.unlink(n)
	delete(t.m, k)
}

// Keys returns the resident keys from most to least recently used.
func (t *Table[V]) Keys() []isa.Addr {
	out := make([]isa.Addr, 0, len(t.m))
	for n := t.head; n != nil; n = n.next {
		out = append(out, n.key)
	}
	return out
}

// evictLRU removes the least recently used entry and returns its node
// (nil when the table is empty) for the caller to reuse.
func (t *Table[V]) evictLRU() *node[V] {
	v := t.tail
	if v == nil {
		return nil
	}
	if t.OnEvict != nil {
		t.OnEvict(v.key, &v.val)
	}
	t.unlink(v)
	delete(t.m, v.key)
	t.evictions++
	return v
}

func (t *Table[V]) pushFront(n *node[V]) {
	n.prev = nil
	n.next = t.head
	if t.head != nil {
		t.head.prev = n
	}
	t.head = n
	if t.tail == nil {
		t.tail = n
	}
}

func (t *Table[V]) unlink(n *node[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		t.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (t *Table[V]) moveToFront(n *node[V]) {
	if t.head == n {
		return
	}
	t.unlink(n)
	t.pushFront(n)
}
