package loopdet

import (
	"testing"
	"testing/quick"

	"dynloop/internal/isa"
	"dynloop/internal/trace"
)

// TestCLSFuzzInvariants feeds completely arbitrary control-flow streams
// (including shapes no real program produces: non-contiguous PCs,
// overlapping bodies, jumps into bodies) and checks the structural
// invariants the mechanism must uphold regardless:
//
//   - never panics;
//   - stack depth never exceeds capacity;
//   - entries are unique by target address;
//   - every entry satisfies T <= B;
//   - event accounting balances (pushes = ends after flush);
//   - iteration counts are >= 2 for every tracked execution;
//   - recycled executions honour the Exec lifetime (see AliasCheck).
func TestCLSFuzzInvariants(t *testing.T) {
	f := func(seed uint64, capacity uint8) bool {
		capEntries := int(capacity%15) + 2
		d := New(Config{Capacity: capEntries})
		var pushes, ends int
		minIters := 2
		chk := &fuzzObs{
			onStart: func(*Exec) { pushes++ },
			onEnd: func(x *Exec, r EndReason, _ uint64) {
				ends++
				if x.Iters < minIters {
					minIters = x.Iters
				}
			},
		}
		d.AddObserver(chk)
		alias := NewAliasCheck()
		d.AddObserver(alias)

		r := seed | 1
		next := func(n uint64) uint64 {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			return r % n
		}
		var ev trace.Event
		callDepth := 0
		for i := 0; i < 3000; i++ {
			pc := isa.Addr(next(64))
			var in isa.Instr
			switch next(5) {
			case 0:
				in = isa.Branch(isa.CondNEZ, 1, isa.Addr(next(64)))
			case 1:
				in = isa.Jump(isa.Addr(next(64)))
			case 2:
				in = isa.Call(isa.Addr(next(64)))
				callDepth++
			case 3:
				if callDepth > 0 {
					in = isa.Ret()
					callDepth--
				} else {
					in = isa.Nop()
				}
			default:
				in = isa.Nop()
			}
			ev = trace.Event{Index: uint64(i), PC: pc, Instr: &in}
			if in.Kind != isa.KindBranch || next(2) == 0 {
				if in.Kind.IsControl() {
					ev.Taken = true
					ev.Target = in.Target
				}
			}
			d.Consume(&ev)

			if d.Depth() > capEntries {
				t.Logf("depth %d > capacity %d", d.Depth(), capEntries)
				return false
			}
			seen := map[isa.Addr]bool{}
			for j := 0; j < d.Depth(); j++ {
				x := d.At(j)
				if seen[x.T] {
					t.Logf("duplicate CLS entry T=%d", x.T)
					return false
				}
				seen[x.T] = true
				if x.B < x.T {
					t.Logf("entry with B < T: %+v", x)
					return false
				}
			}
		}
		d.Flush()
		if d.Depth() != 0 {
			t.Log("flush left entries")
			return false
		}
		if pushes != ends {
			t.Logf("pushes %d != ends %d", pushes, ends)
			return false
		}
		if minIters < 2 {
			t.Logf("tracked execution with %d iterations", minIters)
			return false
		}
		if err := alias.Err(); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// fuzzObs adapts closures to the Observer interface.
type fuzzObs struct {
	NopObserver
	onStart func(*Exec)
	onEnd   func(*Exec, EndReason, uint64)
}

func (f *fuzzObs) ExecStart(x *Exec) { f.onStart(x) }
func (f *fuzzObs) ExecEnd(x *Exec, r EndReason, i uint64) {
	f.onEnd(x, r, i)
}
