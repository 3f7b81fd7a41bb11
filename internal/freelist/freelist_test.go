package freelist

import "testing"

// TestListLIFOBounded: Get returns the item put back last, a Put beyond
// the bound is dropped, and an empty list returns a new item.
func TestListLIFOBounded(t *testing.T) {
	l := New[int]("test.lifo", 2)
	a, b, c := new(int), new(int), new(int)
	l.Put(a)
	l.Put(b)
	l.Put(c) // over the bound: dropped
	if got := l.Get(); got != b {
		t.Fatalf("first Get = %p, want the last item kept (%p)", got, b)
	}
	if got := l.Get(); got != a {
		t.Fatalf("second Get = %p, want %p", got, a)
	}
	if got := l.Get(); got == a || got == b || got == c || *got != 0 {
		t.Fatalf("Get on an empty list = %p (%d), want a new zero item", got, *got)
	}
}

// TestSnapshot: a list reports its occupancy and bound under its name.
func TestSnapshot(t *testing.T) {
	l := New[int]("test.snapshot", 3)
	l.Put(new(int))
	for _, s := range Snapshot() {
		if s.Name == "test.snapshot" {
			if s.Len != 1 || s.Bound != 3 {
				t.Fatalf("snapshot = %+v, want 1 of 3", s)
			}
			return
		}
	}
	t.Fatal("list missing from Snapshot")
}
