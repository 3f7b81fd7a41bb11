package grid

import (
	"encoding/json"
	"testing"
)

// FuzzSpecValidate feeds arbitrary JSON through the spec parser and
// validator: Validate must never panic, and a spec it accepts must
// honour every documented bound — compiling it (against a tiny fake
// config) must stay within the cell cap and never panic either. This is
// the guard on the daemon's POST /v1/grid input path. Every compiled
// cell's key, label and group key must also match the reference
// formulas (see checkCellKeys).
func FuzzSpecValidate(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"kind":"spec","benchmarks":["swim"],"tus":[2,4],"policies":["str","idle"]}`,
		`{"kind":"fig4","table_sizes":[2,16]}`,
		`{"kind":"replacement","modes":["lru","nest"]}`,
		`{"kind":"spec","seeds":[1,2,3],"cls":[8,16],"budget_divs":[1,4]}`,
		`{"kind":"spec","exclusion":[{},{"enabled":true,"threshold":0.85}]}`,
		`{"kind":"spec","render":{"format":"csv","metrics":["tpc"]}}`,
		`{"kind":"spec","tus":[-1]}`,
		`{"kind":"oracle","policies":["str"]}`,
		`{"kind":"bogus"}`,
		`{"kind":"spec","budgets":[99999999999999999]}`,
		`{"kind":"spec","nest_rules":["static","starvation"]}`,
		`{"kind":"spec","benchmarks":["li"],"policies":["STR(12)"],"let_caps":[64],"exclusion":[{"enabled":true,"threshold":1e-7,"min_resolved":3}]}`,
		`{"kind":"replacement","budgets":[123],"seeds":[9223372036854775808],"cls":[-1]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return // rejected: fine, as long as nothing panicked
		}
		// Accepted: every axis must be inside the documented bounds.
		for _, b := range s.Budgets {
			if b > maxBudget {
				t.Fatalf("accepted budget %d out of range", b)
			}
		}
		for _, d := range s.BudgetDivs {
			if d < 1 || d > maxDiv {
				t.Fatalf("accepted budget_div %d out of range", d)
			}
		}
		for _, k := range s.TUs {
			if k < 0 || k > maxTUs {
				t.Fatalf("accepted TU count %d out of range", k)
			}
		}
		for _, c := range s.CLS {
			if c < -1 || c > maxCLS {
				t.Fatalf("accepted cls %d out of range", c)
			}
		}
		for _, sz := range s.TableSizes {
			if sz < 1 || sz > maxTableSize {
				t.Fatalf("accepted table_size %d out of range", sz)
			}
		}
		for _, c := range s.LETCaps {
			if c < 0 || c > maxLETCap {
				t.Fatalf("accepted let_cap %d out of range", c)
			}
		}
		for _, ex := range s.Exclusion {
			if ex.Threshold < 0 || ex.Threshold > 1 {
				t.Fatalf("accepted exclusion threshold %v out of range", ex.Threshold)
			}
		}
		// And it must compile without panicking, to a bounded cell
		// count, against a benchmark subset that always resolves.
		cfg := Config{Benchmarks: []string{"swim"}}
		if len(s.Benchmarks) > 0 {
			// Unknown benchmark names are a compile-time error, not a
			// validation one; both outcomes are fine, panics are not.
			cells, rs, err := Compile(cfg, s)
			if err != nil {
				return
			}
			if len(cells) > maxCells {
				t.Fatalf("compiled %d cells, above the cap", len(cells))
			}
			if err := checkCellKeys(rs.Kind, cfg.BatchSize, cells); err != nil {
				t.Fatal(err)
			}
			return
		}
		cells, rs, err := Compile(cfg, s)
		if err != nil {
			t.Fatalf("validated spec failed to compile: %v", err)
		}
		if len(cells) > maxCells {
			t.Fatalf("compiled %d cells, above the cap", len(cells))
		}
		// Every compiled key, label and group key must be the one the
		// reference formula builds: keys address persisted results.
		if err := checkCellKeys(rs.Kind, cfg.BatchSize, cells); err != nil {
			t.Fatal(err)
		}
	})
}
