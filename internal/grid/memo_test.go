package grid_test

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unicode"

	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/runner"
)

// configNotCompiled names the Config fields compile does not read: they
// say how a grid runs, never which cells it has, so they stay out of
// the memo key. Every other field must be a memo key field.
var configNotCompiled = []string{
	"Parallel", "Runner", "OnEvent", "Traces",
}

// sameCells reports the first difference between two compiles of one
// grid: the cells' coordinates, keys and labels, and the resolved spec.
func sameCells(got, want []grid.Cell, gotSpec, wantSpec grid.Spec) string {
	if len(got) != len(want) {
		return "cell counts differ"
	}
	for i := range got {
		if got[i].Coord != want[i].Coord || got[i].Key != want[i].Key || got[i].Label != want[i].Label {
			return "cell " + want[i].Label + " differs: key " + got[i].Key + ", want " + want[i].Key
		}
	}
	if !reflect.DeepEqual(gotSpec, wantSpec) {
		return "resolved specs differ"
	}
	return ""
}

// TestCompileMemoKeyCoversConfig pins that the memo key covers every
// Config field compile reads. Each Config field is either a memo key
// field or on configNotCompiled, so a new field fails here until it is
// placed. Then, for each key field (and the schema version), two
// configs differing only there must compile, through the memo, to what
// a fresh compile gives each.
func TestCompileMemoKeyCoversConfig(t *testing.T) {
	keyed := grid.MemoKeyFields()
	ct := reflect.TypeOf(grid.Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		if slices.Contains(keyed, name) == slices.Contains(configNotCompiled, name) {
			t.Errorf("Config.%s must be either a memo key field or listed as not read by compile", name)
		}
	}

	// fig4 resolves its CLS capacity from the config.
	e, _ := grid.Lookup("fig4")
	base := grid.Config{Budget: 50_000, Seed: 3}
	variants := map[string]func(*grid.Config){
		"Budget":      func(c *grid.Config) { c.Budget = 60_000 },
		"Seed":        func(c *grid.Config) { c.Seed = 4 },
		"Benchmarks":  func(c *grid.Config) { c.Benchmarks = []string{"swim", "li"} },
		"CLSCapacity": func(c *grid.Config) { c.CLSCapacity = 8 },
		"BatchSize":   func(c *grid.Config) { c.BatchSize = 7 },
	}
	for _, name := range keyed {
		if unicode.IsUpper(rune(name[0])) && variants[name] == nil {
			t.Errorf("memo key field %s has no variant here", name)
		}
	}
	check := func(what string, cfg grid.Config) {
		t.Helper()
		cells, rs, err := grid.Compile(cfg, e.Spec)
		if err != nil {
			t.Fatal(err)
		}
		fresh, frs, err := grid.CompileUncached(cfg, e.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameCells(cells, fresh, rs, frs); d != "" {
			t.Errorf("%s: memoized compile differs from a fresh one: %s", what, d)
		}
	}
	for name, mod := range variants {
		grid.ResetMemo()
		check("base", base)
		cfg := base
		mod(&cfg)
		check(name, cfg)
	}

	grid.ResetMemo()
	check("base", base)
	grid.CellSchemaVersion++
	defer func() { grid.CellSchemaVersion-- }()
	check("bumped CellSchemaVersion", base)
}

// TestCompileMemoHits pins that a registered grid compiles once per
// config: a repeat compile returns the same cells, and so does a
// config differing only in fields compile does not read.
func TestCompileMemoHits(t *testing.T) {
	grid.ResetMemo()
	e, _ := grid.Lookup("fig4")
	first, _, err := grid.Compile(serveCfg, e.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serveCfg
	cfg.Parallel, cfg.OnEvent = 3, func(runner.Event) {}
	cfg.Runner = runner.New(runner.Config{Workers: 1})
	again, _, err := grid.Compile(cfg, e.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &first[0] {
		t.Fatal("a repeat compile of a registered grid did not share the memoized cells")
	}
	if n, err := e.Spec.Size(cfg); err != nil || n != len(first) {
		t.Fatalf("Size = %d, %v; want %d", n, err, len(first))
	}
}

// maxMemoHitAllocs pins a warm compile of each serve grid: 0 measured
// (the registry lookup, the spec comparison and the memo lookup
// allocate nothing when the config names no benchmark subset).
const maxMemoHitAllocs = 0

// TestCompileMemoHitAllocs pins what a served named-grid request's
// compile costs once the grid is memoized, on either end of the wire.
func TestCompileMemoHitAllocs(t *testing.T) {
	compileServeGrids(t, grid.Compile) // warm
	for _, name := range serveGrids {
		e, _ := grid.Lookup(name)
		avg := testing.AllocsPerRun(50, func() {
			if _, _, err := grid.Compile(serveCfg, e.Spec); err != nil {
				t.Fatal(err)
			}
		})
		if avg > maxMemoHitAllocs {
			t.Errorf("%s: a warm compile allocates %v objects, want at most %d", name, avg, maxMemoHitAllocs)
		}
	}
}

// TestCompileMemoSkipsInlineSpecs pins that only registered grids
// enter the memo: an ad-hoc spec, and a spec that reuses a registered
// name with any field changed, compile afresh.
func TestCompileMemoSkipsInlineSpecs(t *testing.T) {
	grid.ResetMemo()
	e, _ := grid.Lookup("table2")
	tweaked := e.Spec
	tweaked.TUs = []int{8}
	retitled := e.Spec
	retitled.Title += " (again)"
	for _, s := range []grid.Spec{
		{Kind: "table1", Benchmarks: []string{"swim"}},
		{Name: "table2", Kind: "spec"},
		tweaked,
		retitled,
	} {
		if _, _, err := grid.Compile(serveCfg, s); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Size(serveCfg); err != nil {
			t.Fatal(err)
		}
	}
	if grids, cells := grid.MemoLen(); grids != 0 || cells != 0 {
		t.Fatalf("inline specs left %d grids (%d cells) in the memo", grids, cells)
	}
}

// TestCompileMemoBounds compiles every registered grid at 200 seeds:
// the memo evicts instead of growing past its bounds.
func TestCompileMemoBounds(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		for _, name := range grid.Names() {
			e, _ := grid.Lookup(name)
			if _, _, err := grid.Compile(grid.Config{Seed: seed}, e.Spec); err != nil {
				t.Fatal(err)
			}
		}
		grids, cells := grid.MemoLen()
		if grids > grid.MaxMemoGrids || cells > grid.MaxMemoCells {
			t.Fatalf("at seed %d the memo holds %d grids and %d cells, bounds %d and %d",
				seed, grids, cells, grid.MaxMemoGrids, grid.MaxMemoCells)
		}
	}
	if grids, _ := grid.MemoLen(); grids == 0 {
		t.Fatal("the memo holds nothing")
	}
}

// TestCompileMemoEntriesMatchFreshCompile renders the paper's whole
// evaluation and serves the serve grids as a daemon and its clients
// do, then requires every memoized grid to equal a fresh compile at
// its config: no caller may modify the cells or the resolved spec it
// shares.
func TestCompileMemoEntriesMatchFreshCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the paper's evaluation")
	}
	grid.ResetMemo()
	ctx := context.Background()
	if _, err := expt.All(ctx, expt.Config{Budget: 20_000}); err != nil {
		t.Fatal(err)
	}
	cfg := grid.Config{Budget: 20_000, Seed: 5, Runner: runner.New(runner.Config{})}
	for range 3 {
		for _, name := range serveGrids {
			e, _ := grid.Lookup(name)
			res, err := grid.Run(ctx, cfg, e.Spec)
			if err != nil {
				t.Fatal(err)
			}
			client, err := grid.ResultFrom(grid.Config{Budget: 20_000, Seed: 5}, e.Spec, res.Values)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := grid.RenderResult(client); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries := grid.MemoEntries()
	if len(entries) < len(serveGrids) {
		t.Fatalf("the memo holds %d grids", len(entries))
	}
	for _, m := range entries {
		if m.Version != grid.CellSchemaVersion {
			t.Fatalf("%s: entry at schema version %d", m.Spec.Name, m.Version)
		}
		fresh, frs, err := grid.CompileUncached(m.Cfg, m.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameCells(m.Cells, fresh, m.Resolved, frs); d != "" {
			t.Errorf("memoized %s at %+v no longer equals a fresh compile: %s", m.Spec.Name, m.Cfg, d)
		}
	}
}

// TestCompileMemoConcurrent runs and rebuilds the serve grids from
// several goroutines at once, as a daemon's handlers and its clients
// do; under -race it catches any write to the shared cells.
func TestCompileMemoConcurrent(t *testing.T) {
	grid.ResetMemo()
	ctx := context.Background()
	cfg := grid.Config{Budget: 10_000, Benchmarks: []string{"swim", "li"}}
	pool := runner.New(runner.Config{Workers: 2})
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range serveGrids {
				e, _ := grid.Lookup(serveGrids[(i+w)%len(serveGrids)])
				run := cfg
				run.Runner = pool
				res, err := grid.Run(ctx, run, e.Spec)
				if err != nil {
					t.Error(err)
					return
				}
				back, err := grid.ResultFrom(cfg, e.Spec, res.Values)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := grid.RenderResult(back); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSpecEqualCoversFields changes each field of a registered spec in
// turn, recursing into the layout: every change must make the specs
// unequal, or the memo would serve one grid's cells for another.
func TestSpecEqualCoversFields(t *testing.T) {
	e, _ := grid.Lookup("table2")
	if !grid.SpecEqual(e.Spec, e.Spec) {
		t.Fatal("a spec is not equal to itself")
	}
	s := e.Spec
	fields := reflect.ValueOf(&s).Elem()
	var check func(v reflect.Value, path string)
	check = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			if f.Kind() == reflect.Struct {
				check(f, name+".")
				continue
			}
			saved := reflect.New(f.Type()).Elem()
			saved.Set(f)
			switch f.Kind() {
			case reflect.String:
				f.SetString(f.String() + "x")
			case reflect.Slice:
				f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
			default:
				t.Fatalf("Spec.%s: no change for kind %s", name, f.Kind())
			}
			if grid.SpecEqual(s, e.Spec) {
				t.Errorf("specs differing in %s compare equal", name)
			}
			f.Set(saved)
		}
	}
	check(fields, "")
	if !grid.SpecEqual(s, e.Spec) {
		t.Fatal("restoring every field left the specs unequal")
	}
}
