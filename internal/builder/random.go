package builder

import "dynloop/internal/interp"

// RandomOpt bounds the random structured programs produced by Random.
type RandomOpt struct {
	// MaxDepth bounds loop nesting (default 4).
	MaxDepth int
	// MaxBlocks bounds the top-level statement count (default 6).
	MaxBlocks int
}

// Random generates a random structured program: nested counted loops,
// while loops, conditionals, calls and straight-line work, drawn
// deterministically from the seed. It is the program source for property
// tests and fuzzing: every generated unit halts (all loops have bounded
// trips, recursion is depth-guarded) and is valid by construction.
func Random(seed uint64, opt RandomOpt) (*Unit, error) {
	if opt.MaxDepth == 0 {
		opt.MaxDepth = 4
	}
	if opt.MaxBlocks == 0 {
		opt.MaxBlocks = 6
	}
	b := New("random", seed)
	// The program's structure is drawn from the seed, so another seed
	// is another program: the unit is not reseedable.
	b.pinned = true
	r := newSplit(seed)

	var fns []FuncRef
	// A few leaf functions with their own loops.
	for i := 0; i < int(1+r.next()%3); i++ {
		fns = append(fns, b.Func("leaf", func() {
			b.Work(int(2 + r.next()%12))
			b.CountedLoop(TripImm(int64(1+r.next()%6)), LoopOpt{}, func() {
				b.Work(int(1 + r.next()%8))
			})
		}))
	}

	var emit func(depth int)
	emit = func(depth int) {
		n := int(1 + r.next()%uint64(opt.MaxBlocks))
		for i := 0; i < n; i++ {
			switch r.next() % 6 {
			case 0:
				b.Work(int(1 + r.next()%20))
			case 1:
				if len(fns) > 0 {
					b.Call(fns[r.next()%uint64(len(fns))])
				}
			case 2:
				if depth < opt.MaxDepth {
					trip := TripImm(int64(1 + r.next()%9))
					if r.next()%3 == 0 {
						trip = TripSeq(b.UniformSeq(1, int64(2+r.next()%8)))
					}
					guarded := r.next()%4 == 0
					b.CountedLoop(trip, LoopOpt{Guarded: guarded}, func() {
						b.Work(int(1 + r.next()%6))
						emit(depth + 1)
					})
				} else {
					b.Work(int(1 + r.next()%6))
				}
			case 3:
				if depth < opt.MaxDepth {
					// Capture the seed now: factories run once per CPU and
					// must not consume the structural RNG.
					seqSeed := r.next() | 1
					id := b.NewSeq(func() interp.Sequence {
						return interp.Mix(seqSeed, []int64{1, 2}, interp.Const(0), interp.Const(1))
					})
					b.WhileSeq(id, func() {
						b.Work(int(1 + r.next()%6))
					})
				}
			case 4:
				cond := b.BernoulliSeq(0.5)
				b.IfSeq(cond, func() {
					b.Work(int(1 + r.next()%8))
				}, func() {
					b.Work(int(1 + r.next()%8))
				})
			case 5:
				if depth > 0 && r.next()%4 == 0 {
					b.BreakIfSeq(b.BernoulliSeq(0.2))
				} else {
					b.Work(int(1 + r.next()%4))
				}
			}
		}
	}
	emit(0)
	return b.Build()
}

// splitmix64 for the generator's own structural choices (independent of
// the program's runtime sequences).
type split struct{ s uint64 }

func newSplit(seed uint64) *split { return &split{s: seed} }

func (r *split) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
