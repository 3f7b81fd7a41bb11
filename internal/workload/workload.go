package workload

import (
	"fmt"
	"sort"

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
	// Build constructs the program. The seed decorrelates the input
	// sequences; the same seed always yields the same program and trace.
	// Registered benchmarks build through the process-wide program cache
	// (see UnitCacheSize), so repeated calls share one immutable Unit.
	Build func(seed uint64) (*builder.Unit, error)
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

var registry []Benchmark

func register(b Benchmark) {
	b.Build = cached(b.Name, b.Build)
	registry = append(registry, b)
}

// All returns every benchmark, sorted by name.
func All() []Benchmark {
	out := make([]Benchmark, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the benchmark names, sorted.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, b := range all {
		out[i] = b.Name
	}
	return out
}

// ByName looks a benchmark up.
func ByName(name string) (Benchmark, error) {
	for _, b := range registry {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
}
