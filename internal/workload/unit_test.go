package workload

import (
	"maps"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/interp"
	"dynloop/internal/isa"
	"dynloop/internal/program"
	"dynloop/internal/trace"
)

// TestUnitCacheSharesUnits: builds of one benchmark at the same seed
// and at different seeds share one Prog and one predecoded Code.
func TestUnitCacheSharesUnits(t *testing.T) {
	bm, _ := ByName("li")
	a, err := bm.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := bm.Build(3)
	c, _ := bm.Build(4)
	for _, v := range []*builder.Unit{b, c} {
		if v.Prog != a.Prog || v.Code() != a.Code() {
			t.Fatal("builds of one benchmark do not share its program")
		}
	}
}

// TestUnitCacheBound: after builds at 40 distinct seeds of every
// registered benchmark, the process holds exactly one Prog and one
// predecoded Code per benchmark.
func TestUnitCacheBound(t *testing.T) {
	progs := map[*program.Program]bool{}
	codes := map[*interp.Code]bool{}
	for _, bm := range All() {
		for seed := uint64(1000); seed < 1040; seed++ {
			u, err := bm.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			progs[u.Prog] = true
			codes[u.Code()] = true
		}
	}
	if len(progs) != Count() || len(codes) != Count() {
		t.Fatalf("%d benchmarks at 40 seeds hold %d programs and %d predecoded codes, want %d of each",
			Count(), len(progs), len(codes), Count())
	}
}

// TestConcurrentCPUsShareUnit runs several CPUs at once from units built
// concurrently — one shared predecoded program — and requires each to
// produce the stream a lone CPU does. Under -race it also proves the
// shared state is only read.
func TestConcurrentCPUsShareUnit(t *testing.T) {
	const budget = 100_000
	bm, _ := ByName("gcc")
	var wg sync.WaitGroup
	units := make([]*builder.Unit, 4)
	for i := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			units[i], _ = bm.Build(77)
		}()
	}
	wg.Wait()
	u := units[0]
	for _, v := range units {
		if v == nil || v.Prog != u.Prog || v.Code() != u.Code() {
			t.Fatal("concurrent builds did not share one program")
		}
	}
	hash := func(u *builder.Unit) uint64 {
		h := trace.NewHash()
		if _, err := u.NewCPU().Run(budget, h); err != nil {
			t.Error(err)
		}
		return h.Sum
	}
	want := hash(u)
	got := make([]uint64, len(units))
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = hash(units[i])
		}()
	}
	wg.Wait()
	for i, h := range got {
		if h != want {
			t.Fatalf("CPU %d: stream hash %x, lone CPU %x", i, h, want)
		}
	}
}

// TestUnitAtSeedMatchesBuild is the exactness check of the shared
// program: for every registered workload, the registered program bound
// to a seed must equal a fresh build at that seed — code, symbols, loop
// descriptors and the full-plane trace. No registered workload may fix
// its inputs at build time (Build would refuse to rebind it), and a
// workload that reads sequences must see another seed change its trace
// (tomcatv reads its only seeded sequence past the 300k-instruction
// prefix, so it is checked at a render's budget).
func TestUnitAtSeedMatchesBuild(t *testing.T) {
	const budget, renderBudget = 300_000, 4_000_000
	seeds := []uint64{0, 1, 2, 1009, 1 << 63, ^uint64(0)}
	r := rand.New(rand.NewPCG(21, 0x5eed))
	for range 8 {
		seeds = append(seeds, r.Uint64())
	}
	hash := func(t *testing.T, u *builder.Unit, budget uint64) uint64 {
		h := trace.NewHash()
		if _, err := u.NewCPU().Run(budget, trace.ForceFullPlane(h)); err != nil {
			t.Fatal(err)
		}
		return h.Sum
	}
	for _, bm := range All() {
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			reads := slices.ContainsFunc(mustBuild(t, bm.build, 0).Prog.Code,
				func(in isa.Instr) bool { return in.Kind == isa.KindSeq })
			sums := map[uint64]bool{}
			for _, seed := range seeds {
				got, err := bm.Build(seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				want := mustBuild(t, bm.build, seed)
				if !slices.Equal(got.Prog.Code, want.Prog.Code) || !maps.Equal(got.Prog.Symbols, want.Prog.Symbols) ||
					got.Prog.Entry != want.Prog.Entry || !slices.Equal(got.Loops, want.Loops) {
					t.Fatalf("seed %d: the shared program differs from a fresh build", seed)
				}
				h := hash(t, got, budget)
				if w := hash(t, want, budget); h != w {
					t.Fatalf("seed %d: trace hash %x, a fresh build's %x", seed, h, w)
				}
				sums[h] = true
			}
			if reads && len(sums) == 1 && hash(t, mustBuild(t, bm.Build, 1), renderBudget) == hash(t, mustBuild(t, bm.Build, 2), renderBudget) {
				t.Fatalf("reads input sequences, but %d seeds give one trace, as do seeds 1 and 2 at %d instructions", len(seeds), renderBudget)
			}
		})
	}
}

func mustBuild(t *testing.T, build func(uint64) (*builder.Unit, error), seed uint64) *builder.Unit {
	t.Helper()
	u, err := build(seed)
	if err != nil {
		t.Fatalf("build at seed %d: %v", seed, err)
	}
	return u
}
