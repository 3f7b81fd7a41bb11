// Package freelist recycles per-group and per-traversal state through
// small bounded lists, one per type, each kept process-wide behind a
// mutex. A List is deterministic where a sync.Pool is not: it never
// drops an item at a collection, under the race detector or into
// another P's slot, so an item put back is the next Get's, and a test
// that counts allocations sees what production sees. Its bound caps
// what an idle process keeps: a Put beyond it leaves the item to the
// collector.
package freelist

import (
	"cmp"
	"slices"
	"sync"
)

// List is a bounded last-in, first-out free list of *T. Create one with
// New; the zero value holds nothing and keeps nothing.
type List[T any] struct {
	name  string
	mu    sync.Mutex
	items []*T // cap is the bound
}

// New returns an empty list that keeps at most bound items, registered
// under name for Snapshot.
func New[T any](name string, bound int) *List[T] {
	l := &List[T]{name: name, items: make([]*T, 0, bound)}
	registry.Lock()
	registry.lists = append(registry.lists, l)
	registry.Unlock()
	return l
}

// Get returns the item put back last, or a new zero T when the list is
// empty.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	n := len(l.items)
	if n == 0 {
		l.mu.Unlock()
		return new(T)
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	l.mu.Unlock()
	return x
}

// Put keeps x for a later Get, unless the list already holds its bound.
// x must not be used afterwards.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	if len(l.items) < cap(l.items) {
		l.items = append(l.items, x)
	}
	l.mu.Unlock()
}

func (l *List[T]) stat() Stat {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stat{Name: l.name, Len: len(l.items), Bound: cap(l.items)}
}

// Stat is one list's occupancy.
type Stat struct {
	Name       string
	Len, Bound int
}

type lister interface{ stat() Stat }

var registry struct {
	sync.Mutex
	lists []lister
}

// Snapshot returns the occupancy of every list New has made, sorted by
// name.
func Snapshot() []Stat {
	registry.Lock()
	out := make([]Stat, len(registry.lists))
	for i, l := range registry.lists {
		out[i] = l.stat()
	}
	registry.Unlock()
	slices.SortFunc(out, func(a, b Stat) int { return cmp.Compare(a.Name, b.Name) })
	return out
}
