package looptab

import (
	"testing"
	"testing/quick"

	"dynloop/internal/isa"
)

// TestTableBasics covers insert/get/touch on a small table.
func TestTableBasics(t *testing.T) {
	tb := NewTable[int](2)
	if tb.Get(1) != nil {
		t.Fatal("get on empty")
	}
	*tb.Insert(1) = 11
	*tb.Insert(2) = 22
	if *tb.Get(1) != 11 || *tb.Get(2) != 22 {
		t.Fatal("values lost")
	}
	// 1 is LRU (Get does not touch); inserting 3 evicts it.
	*tb.Insert(3) = 33
	if tb.Get(1) != nil {
		t.Fatal("LRU entry not evicted")
	}
	if tb.Evictions() != 1 {
		t.Fatalf("evictions = %d", tb.Evictions())
	}
	// Touch 2, insert 4: victim must now be 3.
	tb.Touch(2)
	*tb.Insert(4) = 44
	if tb.Get(3) != nil || tb.Get(2) == nil {
		t.Fatal("touch did not protect entry 2")
	}
}

// TestTableInsertExisting checks reset-to-zero semantics.
func TestTableInsertExisting(t *testing.T) {
	tb := NewTable[int](4)
	*tb.Insert(7) = 99
	if v := tb.Insert(7); *v != 0 {
		t.Fatalf("re-insert did not reset: %d", *v)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
}

// TestTableVictim checks victim reporting used by the §2.3.2 ablation.
func TestTableVictim(t *testing.T) {
	tb := NewTable[int](2)
	if _, _, ok := tb.Victim(); ok {
		t.Fatal("victim on non-full table")
	}
	tb.Insert(1)
	tb.Insert(2)
	k, _, ok := tb.Victim()
	if !ok || k != 1 {
		t.Fatalf("victim = %d ok=%v, want 1", k, ok)
	}
	unbounded := NewTable[int](0)
	unbounded.Insert(1)
	if _, _, ok := unbounded.Victim(); ok {
		t.Fatal("unbounded table must never report a victim")
	}
}

// TestTableOnEvict checks the eviction callback.
func TestTableOnEvict(t *testing.T) {
	tb := NewTable[int](1)
	var gone []isa.Addr
	tb.OnEvict = func(k isa.Addr, v *int) { gone = append(gone, k) }
	tb.Insert(5)
	tb.Insert(6)
	if len(gone) != 1 || gone[0] != 5 {
		t.Fatalf("evict callback: %v", gone)
	}
}

// refLRU is an independent reference model for the property test.
type refLRU struct {
	cap   int
	order []isa.Addr // front = MRU
}

func (r *refLRU) has(k isa.Addr) bool {
	for _, x := range r.order {
		if x == k {
			return true
		}
	}
	return false
}

func (r *refLRU) touch(k isa.Addr) {
	for i, x := range r.order {
		if x == k {
			copy(r.order[1:i+1], r.order[:i])
			r.order[0] = k
			return
		}
	}
}

func (r *refLRU) insert(k isa.Addr) {
	if r.has(k) {
		r.touch(k)
		return
	}
	if len(r.order) >= r.cap {
		r.order = r.order[:len(r.order)-1]
	}
	r.order = append([]isa.Addr{k}, r.order...)
}

// TestTableQuickVsReference drives random operation sequences through the
// table and the reference model and compares residency.
func TestTableQuickVsReference(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := NewTable[int](4)
		ref := &refLRU{cap: 4}
		for _, op := range ops {
			k := isa.Addr(op % 8)
			switch (op / 8) % 2 {
			case 0:
				tb.Insert(k)
				ref.insert(k)
			case 1:
				got := tb.Touch(k) != nil
				want := ref.has(k)
				if got != want {
					return false
				}
				ref.touch(k)
			}
			if tb.Len() != len(ref.order) {
				return false
			}
			for _, k := range ref.order {
				if tb.Get(k) == nil {
					return false
				}
			}
		}
		// MRU->LRU order must match exactly.
		keys := tb.Keys()
		if len(keys) != len(ref.order) {
			return false
		}
		for i := range keys {
			if keys[i] != ref.order[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTableResetQuickVsReference drives random insert and touch
// sequences through one table that is Reset to another capacity
// between them, and compares each life with a fresh reference model:
// residency, recency order, values and evictions. A reset table keeps
// its slab and index map, and none of them may leak an
// entry, an order or a count into the next life.
func TestTableResetQuickVsReference(t *testing.T) {
	tb := NewTable[int](4)
	f := func(capSel uint8, ops []uint16) bool {
		capacity := int(capSel % 6) // 0 is unbounded
		tb.Reset(capacity)
		ref := &refLRU{cap: capacity}
		if capacity == 0 {
			ref.cap = 1 << 30
		}
		var evictions uint64
		for _, op := range ops {
			k := isa.Addr(op % 8)
			switch (op / 8) % 2 {
			case 0:
				if !ref.has(k) && len(ref.order) >= ref.cap {
					evictions++
				}
				*tb.Insert(k) = int(k) + 100
				ref.insert(k)
			case 1:
				if (tb.Touch(k) != nil) != ref.has(k) {
					return false
				}
				ref.touch(k)
			}
		}
		keys := tb.Keys()
		if len(keys) != len(ref.order) || tb.Len() != len(ref.order) || tb.Evictions() != evictions {
			return false
		}
		for i, k := range keys {
			if k != ref.order[i] || *tb.Get(k) != int(k)+100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
