package grid

import (
	"context"
	"strings"
	"testing"
)

// TestConfigDefaults covers budget/seed defaulting and subset
// resolution.
func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.budget() != DefaultBudget || c.seed() != 1 {
		t.Fatalf("defaults: budget=%d seed=%d", c.budget(), c.seed())
	}
	c = Config{Budget: 5, Seed: 9}
	if c.budget() != 5 || c.seed() != 9 {
		t.Fatalf("overrides ignored")
	}
	bms, err := Config{}.benchmarks()
	if err != nil || len(bms) != 18 {
		t.Fatalf("all benchmarks: %d %v", len(bms), err)
	}
	bms, err = Config{Benchmarks: []string{"swim", "perl"}}.benchmarks()
	if err != nil || len(bms) != 2 || bms[0] != "swim" {
		t.Fatalf("subset: %v %v", bms, err)
	}
	if _, err := (Config{Benchmarks: []string{"nope"}}).benchmarks(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestCellKeyCoversConfig: cells that must not collide don't.
func TestCellKeyCoversConfig(t *testing.T) {
	a := Config{Budget: 100}.cellKey("spec", "swim", 4)
	variants := []string{
		Config{Budget: 200}.cellKey("spec", "swim", 4),
		Config{Budget: 100, Seed: 2}.cellKey("spec", "swim", 4),
		Config{Budget: 100, CLSCapacity: 8}.cellKey("spec", "swim", 4),
		Config{Budget: 100}.cellKey("spec", "swim", 8),
		Config{Budget: 100}.cellKey("spec", "gcc", 4),
		Config{Budget: 100}.cellKey("table1", "swim", 4),
	}
	for i, v := range variants {
		if v == a {
			t.Fatalf("variant %d collides with base key %q", i, a)
		}
	}
	// Parallelism must NOT change the key: the result is the same cell.
	if b := (Config{Budget: 100, Parallel: 8}).cellKey("spec", "swim", 4); b != a {
		t.Fatalf("worker count leaked into the cell key: %q vs %q", b, a)
	}
	// Fusion must NOT change the key either: fused and per-cell runs
	// compute the same cell.
	if b := (Config{Budget: 100, NoFuse: true}).cellKey("spec", "swim", 4); b != a {
		t.Fatalf("NoFuse leaked into the cell key: %q vs %q", b, a)
	}
	// Same for the interpreter's reference path: it emits byte-identical
	// streams, so it names the same cell.
	if b := (Config{Budget: 100, Reference: true}).cellKey("spec", "swim", 4); b != a {
		t.Fatalf("Reference leaked into the cell key: %q vs %q", b, a)
	}
}

// TestCellKeyDelimiterCollisions: the length-prefixed encoding keeps
// adjacent parts from blurring into each other — "a","bc" and "ab","c"
// concatenate identically under a naive delimiter scheme, as do parts
// that contain the delimiter itself.
func TestCellKeyDelimiterCollisions(t *testing.T) {
	cfg := Config{Budget: 100}
	pairs := [][2][]any{
		{{"a", "bc"}, {"ab", "c"}},
		{{"a|b"}, {"a", "b"}},
		{{"a|", "b"}, {"a", "|b"}},
		{{"x", ""}, {"x"}},
		{{1, 23}, {12, 3}},
		{{"spec", "swim", "41"}, {"spec", "swim4", "1"}},
		{{"2:ab"}, {"ab"}},
	}
	for _, p := range pairs {
		if a, b := cfg.cellKey(p[0]...), cfg.cellKey(p[1]...); a == b {
			t.Errorf("cellKey(%v) == cellKey(%v) == %q", p[0], p[1], a)
		}
	}
	// And equal parts still key equal.
	if cfg.cellKey("spec", "swim", 4) != cfg.cellKey("spec", "swim", 4) {
		t.Fatal("identical parts produced different keys")
	}
}

// TestCellKeyVersionPrefix pins the stamp's position: the version leads
// the key, so no legacy (unstamped) key can ever equal a stamped one.
func TestCellKeyVersionPrefix(t *testing.T) {
	key := Config{Budget: 100}.cellKey("spec", "swim", 4)
	if key[0] != 'v' {
		t.Fatalf("cell key %q does not lead with the schema version", key)
	}
	CellSchemaVersion++
	bumped := Config{Budget: 100}.cellKey("spec", "swim", 4)
	CellSchemaVersion--
	if bumped == key {
		t.Fatal("bumping CellSchemaVersion did not change the key")
	}
}

// TestSpecValidate covers the validation matrix: good specs pass, out
// of range or inapplicable axes fail.
func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{},
		{Kind: "spec", Policies: []string{"str", "STR(2)", "idle"}, TUs: []int{0, 2, 16}},
		{Kind: "table1", Benchmarks: []string{"swim"}},
		{Kind: "fig4", TableSizes: []int{2, 16}},
		{Kind: "replacement", Modes: []string{"nest"}},
		{Kind: "spec", Exclusion: []ExclusionSpec{{}, {Enabled: true, Threshold: 0.85}}},
		{Kind: "spec", Render: Layout{Format: "csv", Metrics: []string{"tpc", "hit_pct"}}},
		{Kind: "spec", Seeds: []uint64{1, 2, 3}, CLS: []int{-1, 0, 8}},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("good spec %d rejected: %v", i, err)
		}
	}
	bad := []Spec{
		{Kind: "bogus"},
		{Kind: "spec", Policies: []string{"warp9"}},
		{Kind: "spec", TUs: []int{-1}},
		{Kind: "spec", TUs: []int{1 << 20}},
		{Kind: "table1", TUs: []int{4}},                  // engine axis on a non-engine kind
		{Kind: "table1", Policies: []string{"str"}},      // same
		{Kind: "spec", TableSizes: []int{4}},             // sizes on a non-size kind
		{Kind: "fig4", Modes: []string{"lru"}},           // modes on fig4
		{Kind: "replacement", Modes: []string{"random"}}, // unknown mode
		{Kind: "fig4", TableSizes: []int{0}},             // size out of range
		{Kind: "spec", BudgetDivs: []int{0}},             // div out of range
		{Kind: "spec", CLS: []int{-2}},                   // cls out of range
		{Kind: "spec", LETCaps: []int{-1}},               // letcap out of range
		{Kind: "spec", NestRules: []string{"sideways"}},  // unknown rule
		{Kind: "spec", Render: Layout{Format: "yaml"}},   // unknown format
		{Kind: "spec", Render: Layout{Metrics: []string{"bogus"}}},
		{Kind: "spec", Exclusion: []ExclusionSpec{{Threshold: 2}}},
		{Kind: "spec", Exclusion: []ExclusionSpec{{Enabled: false, Threshold: 0.5}}},
		{Kind: "spec", Seeds: make([]uint64, maxAxisLen+1)},
		{Kind: "spec", Benchmarks: []string{"a"}, Seeds: make([]uint64, 2049),
			TUs: make([]int, 2049)}, // > maxCells
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

// TestCompileOrderAndKeys pins the canonical expansion order (bench
// outermost, then budget, seed, cls, policy, tus innermost for engine
// kinds) and the key-compat contract: a grid spec cell carries exactly
// the key the pre-grid driver used.
func TestCompileOrderAndKeys(t *testing.T) {
	cfg := Config{Budget: 1000}
	cells, rs, err := Compile(cfg, Spec{
		Benchmarks: []string{"swim", "li"},
		Policies:   []string{"str", "str3"},
		TUs:        []int{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2 {
		t.Fatalf("%d cells, want 8", len(cells))
	}
	if rs.Policies[0] != "STR" || rs.Policies[1] != "STR(3)" {
		t.Fatalf("policies not canonicalised: %v", rs.Policies)
	}
	want := []Coord{
		{Bench: "swim", Policy: "STR", TUs: 2}, {Bench: "swim", Policy: "STR", TUs: 4},
		{Bench: "swim", Policy: "STR(3)", TUs: 2}, {Bench: "swim", Policy: "STR(3)", TUs: 4},
		{Bench: "li", Policy: "STR", TUs: 2}, {Bench: "li", Policy: "STR", TUs: 4},
		{Bench: "li", Policy: "STR(3)", TUs: 2}, {Bench: "li", Policy: "STR(3)", TUs: 4},
	}
	for i, c := range cells {
		if c.Coord.Bench != want[i].Bench || c.Coord.Policy != want[i].Policy || c.Coord.TUs != want[i].TUs {
			t.Fatalf("cell %d coord %+v, want %+v", i, c.Coord, want[i])
		}
		if c.Coord.Budget != 1000 || c.Coord.Seed != 1 {
			t.Fatalf("cell %d budget/seed not resolved: %+v", i, c.Coord)
		}
	}
	// Key compat: the first cell's key is exactly what the pre-grid
	// specCell built for spec.Config{TUs: 2, Policy: spec.STR()}.
	wantKey := cfg.cellKey("spec", "swim", 2, "STR", 0, 0, false, 0.0, 0, 0)
	if cells[0].Key != wantKey {
		t.Fatalf("cell key drifted:\n got  %q\n want %q", cells[0].Key, wantKey)
	}
	// Budget divisors resolve onto the cell budget (and its key).
	cells5, _, err := Compile(cfg, Spec{
		Benchmarks: []string{"swim"}, BudgetDivs: []int{1, 4}, TUs: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cells5[0].Coord.Budget != 1000 || cells5[1].Coord.Budget != 250 {
		t.Fatalf("budget divisor not applied: %+v %+v", cells5[0].Coord, cells5[1].Coord)
	}
	if !strings.Contains(cells5[1].Key, "|b250|") {
		t.Fatalf("reduced budget missing from key %q", cells5[1].Key)
	}
}

// TestRunSmallGrid executes a tiny spec end to end and exercises the
// generic renderers.
func TestRunSmallGrid(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Budget: 50_000, Parallel: 2}
	res, err := Run(ctx, cfg, Spec{
		Benchmarks: []string{"swim", "compress"},
		Seeds:      []uint64{1, 2},
		TUs:        []int{2},
		Policies:   []string{"str"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 4 {
		t.Fatalf("%d values, want 4", len(res.Values))
	}
	table, err := RenderLayout(res)
	if err != nil || !strings.Contains(table, "seed") || !strings.Contains(table, "tpc") {
		t.Fatalf("table render: %v\n%s", err, table)
	}
	res.Spec.Render.Format = "csv"
	csv, err := RenderLayout(res)
	if err != nil || !strings.HasPrefix(csv, "bench,seed,tpc") {
		t.Fatalf("csv render: %v\n%s", err, csv)
	}
	res.Spec.Render.Format = "json"
	js, err := RenderLayout(res)
	if err != nil || !strings.Contains(js, "\"cells\"") {
		t.Fatalf("json render: %v\n%s", err, js)
	}
	// ResultFrom round trip: the same values rebuild an identical render.
	res.Spec.Render.Format = ""
	re, err := ResultFrom(cfg, Spec{
		Benchmarks: []string{"swim", "compress"},
		Seeds:      []uint64{1, 2},
		TUs:        []int{2},
		Policies:   []string{"str"},
	}, res.Values)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RenderLayout(re)
	if err != nil || got != table {
		t.Fatalf("ResultFrom render differs: %v\n%s\nvs\n%s", err, got, table)
	}
	// A skewed value stream fails loudly.
	if _, err := ResultFrom(cfg, Spec{Benchmarks: []string{"swim"}}, []any{"nope"}); err == nil {
		t.Fatal("foreign value accepted")
	}
	if _, err := ResultFrom(cfg, Spec{Benchmarks: []string{"swim"}}, nil); err == nil {
		t.Fatal("short value stream accepted")
	}
}

// TestRunSeedAxisDecorrelates: distinct seeds are distinct cells with
// distinct results (the whole point of the seed axis).
func TestRunSeedAxisDecorrelates(t *testing.T) {
	res, err := Run(context.Background(), Config{Budget: 50_000, Parallel: 2}, Spec{
		Benchmarks: []string{"gcc"},
		Seeds:      []uint64{1, 2},
		Policies:   []string{"str3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[0].Key == res.Cells[1].Key {
		t.Fatal("seeds share a cell key")
	}
	if res.Values[0] == res.Values[1] {
		t.Fatal("distinct seeds produced identical metrics (suspicious)")
	}
}

// TestReferencePathByteIdentical pins the equivalence the Reference
// knob exists to expose: the predecoded+fused interpreter and the
// reference two-level interpreter must produce byte-identical rendered
// results for a grid spec, fused-run or not, at any parallelism.
func TestReferencePathByteIdentical(t *testing.T) {
	ctx := context.Background()
	spec := Spec{
		Benchmarks: []string{"swim", "gcc"},
		Seeds:      []uint64{1, 2},
		TUs:        []int{2},
		Policies:   []string{"str"},
	}
	render := func(cfg Config) string {
		t.Helper()
		res, err := Run(ctx, cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		out, err := RenderLayout(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := render(Config{Budget: 50_000})
	for i, cfg := range []Config{
		{Budget: 50_000, Reference: true},
		{Budget: 50_000, Reference: true, NoFuse: true},
		{Budget: 50_000, Reference: true, Parallel: 8},
	} {
		if got := render(cfg); got != base {
			t.Fatalf("variant %d: reference render differs from fused:\n%s\nvs\n%s", i, got, base)
		}
	}
}

// TestCompileRejectsZeroBudget: a divisor larger than the budget must
// error, not silently resurrect DefaultBudget via budget()'s zero
// fallback.
func TestCompileRejectsZeroBudget(t *testing.T) {
	_, _, err := Compile(Config{}, Spec{
		Benchmarks: []string{"swim"}, Budgets: []uint64{100}, BudgetDivs: []int{1000},
	})
	if err == nil || !strings.Contains(err.Error(), "truncates to zero") {
		t.Fatalf("zero-budget cell accepted: %v", err)
	}
	// A divisor that leaves at least one instruction is fine.
	if _, _, err := Compile(Config{}, Spec{
		Benchmarks: []string{"swim"}, Budgets: []uint64{100}, BudgetDivs: []int{100},
	}); err != nil {
		t.Fatalf("1-instruction budget rejected: %v", err)
	}
}

// TestCLSSizeAtCapResolved: a clssize cell's AtCap compares the CLS's
// deepest occupancy with the resolved capacity, so capacity 0 (the
// default 16) computes what 16 computes and an unbounded CLS (-1) is
// never at cap. Cells at those two capacities once compared against the
// raw value; their keys must differ from what they were keyed under
// then, while every positive capacity keeps its key.
func TestCLSSizeAtCapResolved(t *testing.T) {
	cfg := Config{Budget: 200_000, Parallel: 2}
	res, err := Run(context.Background(), cfg, Spec{Kind: "clssize",
		Benchmarks: []string{"swim", "gcc", "perl"}, CLS: []int{-1, 0, 1, 2, 16, 64}})
	if err != nil {
		t.Fatal(err)
	}
	type at struct {
		bench string
		cls   int
	}
	vals := map[at]CLSCell{}
	for i, c := range res.Cells {
		v := res.Values[i].(CLSCell)
		vals[at{c.Coord.Bench, c.Coord.CLS}] = v
		old := Config{Budget: cfg.Budget, CLSCapacity: c.Coord.CLS}.cellKey("clssize", c.Coord.Bench)
		if (c.Key == old) != (c.Coord.CLS > 0) {
			t.Errorf("%s: key %q, pre-fix key %q", c.Label, c.Key, old)
		}
	}
	for _, bench := range []string{"swim", "gcc", "perl"} {
		if v := vals[at{bench, -1}]; v.AtCap || v.Evictions != 0 {
			t.Errorf("%s unbounded: %+v, want never at cap", bench, v)
		}
		if v := vals[at{bench, 1}]; !v.AtCap {
			t.Errorf("%s at capacity 1: %+v, want at cap", bench, v)
		}
		if d, p := vals[at{bench, 0}], vals[at{bench, 16}]; d != p {
			t.Errorf("%s: capacity 0 gives %+v, the default 16 gives %+v", bench, d, p)
		}
	}
}
