package grid

import (
	"context"
	"fmt"
	"strconv"

	"dynloop/internal/branchpred"
	"dynloop/internal/builder"
	"dynloop/internal/datapred"
	"dynloop/internal/harness"
	"dynloop/internal/loopdet"
	"dynloop/internal/loopstats"
	"dynloop/internal/looptab"
	"dynloop/internal/runner"
	"dynloop/internal/spec"
	"dynloop/internal/taskpred"
	"dynloop/internal/workload"
)

// The cell result types. Each is one codec-registered value (see
// codecs.go): the runner cache holds them, the on-disk store persists
// their frames, and the wire format streams the same frames to remote
// clients. The experiment drivers in internal/expt alias the exported
// ones for their rows.

// Table1Row is one benchmark's loop statistics next to the paper's.
type Table1Row struct {
	Bench string
	S     loopstats.Summary
	Paper workload.PaperRow
}

// Fig4Cell is one benchmark's LET/LIT hit ratios at one table size.
type Fig4Cell struct {
	LET, LIT float64
}

// Fig8Row is one benchmark's data-speculation statistics.
type Fig8Row struct {
	Bench string
	S     datapred.Summary
}

// CLSCell is one benchmark's result at one CLS capacity.
type CLSCell struct {
	Evictions uint64
	AtCap     bool
	TPC       float64
}

// ReplCell is one benchmark's tracker result under one replacement
// policy at one table size.
type ReplCell struct {
	LET, LIT  float64
	Inhibited uint64
}

// OneShotRow compares Table-1 statistics with and without counting
// single-iteration executions.
type OneShotRow struct {
	Bench                  string
	WithIPE, WithoutIPE    float64 // iterations per execution
	WithExecs, WithoutExec uint64
}

// BaselineRow is one benchmark's conventional branch-prediction
// accuracies (BTFN, bimodal, gshare).
type BaselineRow struct {
	Bench   string
	Results []branchpred.Result
}

// TaskPredRow compares multiscalar-style next-task prediction against
// the paper's iteration-count speculation on one benchmark.
type TaskPredRow struct {
	Bench       string
	NextTaskPct float64
	Scored      uint64
	IterHitPct  float64
}

// OracleRow compares the STR policy against speculation with perfect
// iteration-count knowledge.
type OracleRow struct {
	Bench             string
	STRTPC, OracleTPC float64
	STRHit, OracleHit float64
}

// Coord is one cell's position on the grid's axes. Axes that do not
// apply to the cell's kind hold their zero values.
type Coord struct {
	Bench     string
	Budget    uint64 // resolved (post-default, post-divisor)
	Seed      uint64 // resolved
	CLS       int
	TableSize int
	Mode      string
	Policy    string
	TUs       int
	LETCap    int
	NestRule  string
	Exclusion ExclusionSpec
}

// Cell is one compiled experiment cell: its coordinates, the versioned
// cache key that addresses it in the runner, the store and the serving
// layer, and (server side) the pass or composite run that computes it.
type Cell struct {
	Coord Coord
	// Key is the cell's runner/store cache key (see Config.cellKey).
	Key string
	// Label is what progress events report.
	Label string

	bench *workload.Benchmark // the registered entry; never modified
	// group is the cell's fusion group key (see setGroups).
	group string
	// attach adds the cell's observers or pass to its fused group and
	// returns the finish hook that extracts its result once the
	// traversal is finalised (fusable kinds). Exactly one of attach and
	// run is set.
	attach func(g *group) func() (any, error)
	// run computes a composite cell that owns its own traversals (the
	// oracle kind). Like attach, it takes its run settings (batch size,
	// archive) from the Config of the Run executing it, never from the
	// compile's: compiled cells are shared across runs.
	run func(ctx context.Context, cfg *Config, pool *runner.Runner) (any, error)
}

// Compile validates and resolves the spec under cfg and expands it to
// cells in canonical axis order — benchmarks outermost, then budgets ×
// budget_divs, seeds, cls, table_sizes, modes, policies, tus, let_caps,
// nest_rules, exclusion innermost. The expansion is deterministic: the
// same spec and config always yield the same cells in the same order,
// which is what lets a client rebuild a Result from a remote value
// stream, and what keeps every render byte-identical at any worker
// count.
//
// A spec equal in every field to a registered grid's compiles once per
// config: the cells and resolved spec come from a bounded process-wide
// memo keyed by the grid's name, CellSchemaVersion and the Config
// fields compile reads (Budget, Seed, Benchmarks, CLSCapacity,
// BatchSize). The returned cells and the resolved spec's axis slices
// are then shared with every other caller compiling the same grid —
// the daemon's Run, a client's ResultFrom, the drivers — so they are
// read-only: a caller must not modify a Cell or an axis element.
// Inline specs compile afresh on every call.
func Compile(cfg Config, s Spec) ([]Cell, Spec, error) {
	cells, rs, _, err := compileJobs(cfg, s)
	return cells, rs, err
}

// compileJobs is Compile that also returns a registered grid's fusion
// jobs, memoized with its cells; an inline spec has none (nil).
func compileJobs(cfg Config, s Spec) ([]Cell, Spec, []runner.GroupJob[any], error) {
	k, ok := memoKeyOf(&cfg, &s)
	if !ok {
		cells, rs, err := compile(cfg, s)
		return cells, rs, nil, err
	}
	if e, ok := memoGet(k); ok {
		return e.cells, e.rs, e.jobs, nil
	}
	cells, rs, err := compile(cfg, s)
	if err != nil {
		return nil, Spec{}, nil, err
	}
	e := memoPut(k, &memoEntry{cells: cells, rs: rs, jobs: groupJobs(cells)})
	return e.cells, e.rs, e.jobs, nil
}

// compile is Compile without the memo.
func compile(cfg Config, s Spec) ([]Cell, Spec, error) {
	rs, err := s.resolve(cfg)
	if err != nil {
		return nil, Spec{}, err
	}
	cells, err := expand(cfg, &rs)
	if err != nil {
		return nil, Spec{}, err
	}
	return cells, rs, nil
}

// expansion is the read-only state of one expand call: the resolved
// spec plus its engine axes parsed once, not once per cell.
type expansion struct {
	rs   *Spec
	pols []spec.Policy   // rs.Policies, parsed
	nrs  []spec.NestRule // rs.NestRules, parsed
}

// expand builds the cells of a resolved spec.
func expand(cfg Config, rs *Spec) ([]Cell, error) {
	n := rs.size()
	if n > maxCells {
		return nil, fmt.Errorf("grid: spec expands to %d cells (max %d)", n, maxCells)
	}
	x := expansion{rs: rs}
	for _, name := range rs.Policies {
		pol, _ := ParsePolicy(name)
		x.pols = append(x.pols, pol)
	}
	for _, name := range rs.NestRules {
		nr, _ := parseNestRule(name)
		x.nrs = append(x.nrs, nr)
	}
	cells := make([]Cell, 0, n)
	for _, name := range rs.Benchmarks {
		bm, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		for _, budget := range rs.Budgets {
			for _, div := range rs.BudgetDivs {
				for _, seed := range rs.Seeds {
					for _, cls := range rs.CLS {
						cellCfg := cfg
						if budget != 0 {
							cellCfg.Budget = budget
						}
						resolved := cellCfg.budget()
						cellCfg.Budget = resolved / uint64(div)
						if cellCfg.Budget == 0 {
							// A zero budget would silently resurrect
							// DefaultBudget in every later budget() call —
							// a full-budget traversal where the user asked
							// for a sliver.
							return nil, fmt.Errorf("grid: budget %d / divisor %d truncates to zero instructions",
								resolved, div)
						}
						if seed != 0 {
							cellCfg.Seed = seed
						}
						if cls != 0 {
							cellCfg.CLSCapacity = cls
						}
						coord := Coord{
							Bench:  bm.Name,
							Budget: cellCfg.budget(),
							Seed:   cellCfg.seed(),
							CLS:    cellCfg.CLSCapacity,
						}
						cells = x.appendKindCells(cells, bm, &cellCfg, coord)
					}
				}
			}
		}
	}
	setGroups(cells, cfg.BatchSize)
	return cells, nil
}

// appendKindCells expands the kind-specific inner axes for one base
// coordinate; cfg is the cell config, with budget, seed and CLS
// resolved. Key parts and labels reproduce the pre-grid drivers byte
// for byte, so grid cells deduplicate against (and serve from)
// everything those drivers ever cached or persisted. The passes capture
// only what they read: the registered benchmark and the CLS capacity.
func (x *expansion) appendKindCells(cells []Cell, bm *workload.Benchmark, cfg *Config, coord Coord) []Cell {
	rs, cls := x.rs, coord.CLS
	switch rs.Kind {
	case "spec":
		for i, polName := range rs.Policies {
			for _, tus := range rs.TUs {
				for _, letCap := range rs.LETCaps {
					for j, nrName := range rs.NestRules {
						for _, ex := range rs.Exclusion {
							ec := spec.Config{TUs: tus, Policy: x.pols[i], LETCapacity: letCap, NestRule: x.nrs[j]}
							if ex.Enabled {
								ec.Exclude = true
								ec.ExcludeThreshold = ex.Threshold
								ec.ExcludeMinResolved = ex.MinResolved
								ec.ExcludeCapacity = ex.Capacity
							}
							c := coord
							c.Policy, c.TUs, c.LETCap, c.NestRule, c.Exclusion = polName, tus, letCap, nrName, ex
							cells = append(cells, specEngineCell(cfg, bm, c, ec))
						}
					}
				}
			}
		}
	case "table1":
		cells = append(cells, Cell{
			Coord: coord,
			Key:   cfg.cellKey("table1", bm.Name),
			Label: "table1 " + bm.Name,
			bench: bm,
			attach: func(g *group) func() (any, error) {
				c := loopstats.NewCollector()
				g.observe(cls, c)
				return func() (any, error) {
					return Table1Row{Bench: bm.Name, S: c.Summary(), Paper: bm.Paper}, nil
				}
			},
		})
	case "fig4":
		for _, size := range rs.TableSizes {
			c := coord
			c.TableSize = size
			cells = append(cells, Cell{
				Coord: c,
				Key:   cfg.cellKey("fig4", size, bm.Name),
				Label: "fig4 " + bm.Name + "/" + strconv.Itoa(size) + " entries",
				bench: bm,
				attach: func(g *group) func() (any, error) {
					tr := looptab.NewTracker(size, size)
					g.observe(cls, tr)
					return func() (any, error) {
						let, _ := tr.LET.HitRatio()
						lit, _ := tr.LIT.HitRatio()
						return Fig4Cell{LET: let, LIT: lit}, nil
					}
				},
			})
		}
	case "fig8":
		cells = append(cells, Cell{
			Coord: coord,
			Key:   cfg.cellKey("fig8", bm.Name),
			Label: "fig8 " + bm.Name,
			bench: bm,
			attach: func(g *group) func() (any, error) {
				c := datapred.NewCollector(datapred.Config{})
				g.observe(cls, c)
				return func() (any, error) {
					return Fig8Row{Bench: bm.Name, S: c.Summary()}, nil
				}
			},
		})
	case "clssize":
		// AtCap compares against the resolved capacity: 0 is the
		// default 16 and an unbounded CLS is never at cap. Cells at
		// capacities 0 and -1 once compared against the raw value, so
		// their keys carry the resolved capacity and a store never
		// serves what they computed then.
		capacity := harness.ResolveCLSCapacity(cls)
		key := cfg.cellKey("clssize", bm.Name)
		if cls <= 0 {
			key = cfg.cellKey("clssize", bm.Name, capacity)
		}
		cells = append(cells, Cell{
			Coord: coord,
			Key:   key,
			Label: "cls " + bm.Name + "/" + strconv.Itoa(cls) + " entries",
			bench: bm,
			attach: func(g *group) func() (any, error) {
				e := g.engine(cls, spec.Config{TUs: 4, Policy: spec.STRn(3)})
				det := g.detector(cls, false)
				return func() (any, error) {
					ds := det.Stats()
					return CLSCell{
						Evictions: ds.Evictions,
						AtCap:     capacity > 0 && ds.MaxDepth >= capacity,
						TPC:       e.Metrics().TPC(),
					}, nil
				}
			},
		})
	case "replacement":
		for _, size := range rs.TableSizes {
			for _, mode := range rs.Modes {
				nestingAware := mode == "nest"
				c := coord
				c.TableSize, c.Mode = size, mode
				cells = append(cells, Cell{
					Coord: c,
					Key:   cfg.cellKey("replacement", bm.Name, size, mode),
					Label: "replacement " + bm.Name + "/" + strconv.Itoa(size) + "/" + mode,
					bench: bm,
					attach: func(g *group) func() (any, error) {
						tr := looptab.NewTracker(size, size)
						if nestingAware {
							tr.EnableNestingAware()
						}
						g.observe(cls, tr)
						return func() (any, error) {
							let, _ := tr.LET.HitRatio()
							lit, _ := tr.LIT.HitRatio()
							return ReplCell{LET: let, LIT: lit, Inhibited: tr.LET.Inhibited() + tr.LIT.Inhibited()}, nil
						}
					},
				})
			}
		}
	case "oneshots":
		cells = append(cells, Cell{
			Coord: coord,
			Key:   cfg.cellKey("oneshots", bm.Name),
			Label: "oneshots " + bm.Name,
			bench: bm,
			attach: func(g *group) func() (any, error) {
				with := loopstats.NewCollector()
				without := loopstats.NewCollector()
				without.CountOneShots = false
				g.observe(cls, with)
				g.observe(cls, without)
				return func() (any, error) {
					w, wo := with.Summary(), without.Summary()
					return OneShotRow{
						Bench: bm.Name, WithIPE: w.ItersPerExec, WithoutIPE: wo.ItersPerExec,
						WithExecs: w.Execs, WithoutExec: wo.Execs,
					}, nil
				}
			},
		})
	case "branchpred":
		cells = append(cells, Cell{
			Coord: coord,
			Key:   cfg.cellKey("branchpred", bm.Name),
			Label: "branchpred " + bm.Name,
			bench: bm,
			attach: func(g *group) func() (any, error) {
				suite := branchpred.DefaultSuite()
				g.add(suite)
				return func() (any, error) {
					return BaselineRow{Bench: bm.Name, Results: suite.Results()}, nil
				}
			},
		})
	case "taskpred":
		cells = append(cells, Cell{
			Coord: coord,
			Key:   cfg.cellKey("taskpred", bm.Name),
			Label: "taskpred " + bm.Name,
			bench: bm,
			attach: func(g *group) func() (any, error) {
				tp := taskpred.New(taskpred.Config{})
				g.observe(cls, tp)
				e := g.engine(cls, spec.Config{TUs: 4, Policy: spec.STRn(3)})
				return func() (any, error) {
					acc, n := tp.Accuracy()
					return TaskPredRow{
						Bench:       bm.Name,
						NextTaskPct: acc,
						Scored:      n,
						IterHitPct:  e.Metrics().HitRatio(),
					}, nil
				}
			},
		})
	case "oracle":
		cells = append(cells, Cell{
			Coord: coord,
			Key:   cfg.cellKey("oracle", bm.Name),
			Label: "oracle " + bm.Name,
			bench: bm,
			run:   oracleRun(bm, coord),
		})
	}
	return cells
}

// specEngineCell is the shared benchmark × engine-configuration cell
// that Table 2, Figures 5–7, the sweep grid and several ablations are
// all built from; the cache key covers every spec.Config field so
// distinct configurations never collide, while identical cells
// submitted by different grids on a shared Runner are computed once.
// The key holds the policy under its canonical name (coord.Policy) and
// the nest rule as its number, as %v has always printed them. The
// cell's engine is a lane of the bank of its LET capacity on its
// group's detector for the cell's CLS capacity (see group).
func specEngineCell(cfg *Config, bm *workload.Benchmark, coord Coord, ec spec.Config) Cell {
	cls := coord.CLS
	return Cell{
		Coord: coord,
		Key: cfg.cellKey("spec", bm.Name, ec.TUs, coord.Policy, ec.LETCapacity, int(ec.NestRule),
			ec.Exclude, ec.ExcludeThreshold, ec.ExcludeMinResolved, ec.ExcludeCapacity),
		Label: bm.Name + " " + coord.Policy + "/" + strconv.Itoa(ec.TUs) + " TUs",
		bench: bm,
		attach: func(g *group) func() (any, error) {
			e := g.engine(cls, ec)
			return func() (any, error) { return e.Metrics(), nil }
		},
	}
}

// oracleRun bounds the cost of iteration-count misprediction: a first
// traversal records every execution's true count, a second speculates
// with it. The oracle run depends on the recorder pass, so the cell is
// a composite job owning its own traversals, not a fusable pass.
// The cell's budget, seed and CLS capacity come from its coordinates.
func oracleRun(bm *workload.Benchmark, coord Coord) func(context.Context, *Config, *runner.Runner) (any, error) {
	return func(ctx context.Context, cfg *Config, pool *runner.Runner) (any, error) {
		mc := harness.MultiConfig{Budget: coord.Budget, BatchSize: cfg.BatchSize}
		// Both traversals come from the first source that serves them
		// (see harness.Traverse), so the second is always a replay. The
		// unit is built lazily, and at most once.
		var u *builder.Unit
		build := func() (*builder.Unit, error) {
			if u != nil {
				return u, nil
			}
			var err error
			if u, err = bm.Build(coord.Seed); err != nil {
				return nil, fmt.Errorf("grid: build %s: %w", bm.Name, err)
			}
			return u, nil
		}
		traverse := func(observers ...loopdet.Observer) error {
			det := harness.NewObserverPass(coord.CLS, observers...)
			defer det.Release()
			_, _, err := harness.Traverse(ctx, pool.Recordings(), cfg.Traces, bm.Name, coord.Seed, build, mc, det)
			return err
		}
		// The row copies its values out before the recorder and the bank
		// go back to their pools.
		rec := spec.NewOracleRecorder()
		defer rec.Release()
		if err := traverse(rec); err != nil {
			return OracleRow{}, err
		}
		// Both engines are lanes of one bank, sharing its LET.
		bank := spec.NewBank(0)
		defer bank.Release()
		str := bank.Add(spec.Config{TUs: 4, Policy: spec.STR()})
		oracle := bank.Add(spec.Config{TUs: 4, Policy: spec.STR(), OracleIters: rec.Counts()})
		if err := traverse(bank); err != nil {
			return OracleRow{}, err
		}
		mS, mO := str.Metrics(), oracle.Metrics()
		return OracleRow{
			Bench:  bm.Name,
			STRTPC: mS.TPC(), OracleTPC: mO.TPC(),
			STRHit: mS.HitRatio(), OracleHit: mO.HitRatio(),
		}, nil
	}
}
