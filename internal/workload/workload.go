package workload

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"dynloop/internal/builder"
)

// Benchmark is one synthetic SPEC95 stand-in.
type Benchmark struct {
	// Name is the SPEC95 program name this workload is calibrated
	// against.
	Name string
	// Suite is "int" or "fp", as in SPEC95.
	Suite string
	// Description summarises the structure being mimicked.
	Description string
	// Paper records the Table 1 row of the original program:
	// {static loops, iter/exec, instr/iter, avg nl, max nl} plus the
	// Table 2 TPC at 4 TUs under STR(3).
	Paper PaperRow
	// Build returns the program bound to seed. The seed is the
	// workload's input set: it decorrelates the input sequences and
	// leaves the code alone, and the same seed always yields the same
	// trace. A registered benchmark builds its program once per process;
	// every call after that rebinds it to the seed (builder.Unit.WithSeed),
	// so units at every seed share one Prog and one predecoded Code.
	Build func(seed uint64) (*builder.Unit, error)

	// build is the profile's own build function, which builds afresh on
	// every call.
	build func(seed uint64) (*builder.Unit, error)
}

// PaperRow holds the published reference numbers for context in reports.
type PaperRow struct {
	Loops        int
	ItersPerExec float64
	InstrPerIter float64
	AvgNL        float64
	MaxNL        int
	TPC4         float64 // Table 2: STR(3), 4 TUs
	HitRatio     float64 // Table 2: %
}

// registry holds every benchmark, kept sorted by name as init-time
// registrations arrive, so readers iterate it as is.
var registry []Benchmark

func register(b Benchmark) {
	b.build = b.Build
	b.Build = buildOnce(b.Name, b.Build)
	i := sort.Search(len(registry), func(i int) bool { return registry[i].Name >= b.Name })
	registry = slices.Insert(registry, i, b)
}

// buildOnce wraps a benchmark's build function so the process builds
// its program once, and binds it to each caller's seed. Callers arriving
// during the build wait for it; a failed build is not kept, so the next
// caller retries.
func buildOnce(name string, build func(uint64) (*builder.Unit, error)) func(uint64) (*builder.Unit, error) {
	var (
		mu   sync.Mutex
		prog *builder.Unit
	)
	return func(seed uint64) (*builder.Unit, error) {
		mu.Lock()
		if prog == nil {
			u, err := build(0)
			if err != nil {
				mu.Unlock()
				return nil, err
			}
			prog = u
		}
		p := prog
		mu.Unlock()
		u, ok := p.WithSeed(seed)
		if !ok {
			return nil, fmt.Errorf("workload: %s fixes its input sequences at build time, so its program cannot be rebound to seed %d", name, seed)
		}
		return u, nil
	}
}

// All returns every benchmark, sorted by name.
func All() []Benchmark { return slices.Clone(registry) }

// Count is the number of registered benchmarks.
func Count() int { return len(registry) }

// Names returns the benchmark names, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i := range registry {
		out[i] = registry[i].Name
	}
	return out
}

// ByName looks a benchmark up.
func ByName(name string) (Benchmark, error) {
	b, err := Lookup(name)
	if err != nil {
		return Benchmark{}, err
	}
	return *b, nil
}

// Lookup is ByName without the copy: the result points at the
// registered entry, which callers must not modify.
func Lookup(name string) (*Benchmark, error) {
	for i := range registry {
		if registry[i].Name == name {
			return &registry[i], nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
}
