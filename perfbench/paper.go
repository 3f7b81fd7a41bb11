package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dynloop/internal/builder"
	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/harness"
	"dynloop/internal/runner"
	"dynloop/internal/tracefile"
	"dynloop/internal/workload"
)

// paperBudget is the per-benchmark instruction budget of the paper
// workloads' render (the CLI's `experiment all -n 500000`).
const paperBudget = 500_000

// sections is the paper-order section list of `dynloop experiment all`
// (expt.All): each section renders the named registered grids and joins
// them with sep. The reference digests pin that this loop renders what
// expt.All renders.
var sections = []struct {
	entries []string
	sep     string
}{
	{[]string{"table1"}, ""},
	{[]string{"fig4"}, ""},
	{[]string{"fig5"}, ""},
	{[]string{"fig6"}, ""},
	{[]string{"fig7"}, ""},
	{[]string{"table2"}, ""},
	{[]string{"fig8"}, ""},
	{[]string{"baseline/branch", "baseline/task"}, "\n"},
	{[]string{"ablation/cls", "ablation/let", "ablation/replacement", "ablation/oneshots",
		"ablation/nestrule", "ablation/exclusion", "ablation/oracle"}, ""},
}

// paperGrids lists the registered grids of the render in order.
func paperGrids() []string {
	var out []string
	for _, sec := range sections {
		out = append(out, sec.entries...)
	}
	return out
}

// passKinds are the grid kinds whose pass self time is reported.
var passKinds = []string{"spec", "table1", "fig4", "fig8", "branchpred", "taskpred",
	"clssize", "replacement", "oneshots", "oracle"}

// flat maps a grid name to a metric-name component.
func flat(name string) string { return strings.ReplaceAll(name, "/", "-") }

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// referenceRender renders the evaluation through the production entry
// point, expt.All, with a fresh runner.
func referenceRender(ctx context.Context, seed uint64, workers int) (string, error) {
	return expt.All(ctx, expt.Config{Budget: paperBudget, Seed: seed, Parallel: workers})
}

// paperEnv runs the paper-cold and paper-replay workloads.
type paperEnv struct {
	seed    uint64
	workers int
	work    string // scratch directory of this run
	archive string // trace archive directory; "" renders cold
}

// setup does the one-time work before the first repetition: resolve
// and compile every registered grid of the render and build every
// workload program once; for paper-replay, record the trace archive
// (one interpreted traversal per benchmark at the render's budget,
// which serves every smaller budget too).
// It returns the time the recording took.
func (p *paperEnv) setup(ctx context.Context, dir string) (time.Duration, error) {
	cfg := grid.Config{Budget: paperBudget, Seed: p.seed}
	for _, name := range paperGrids() {
		e, ok := grid.Lookup(name)
		if !ok {
			return 0, fmt.Errorf("grid %q not registered", name)
		}
		if _, _, err := grid.Compile(cfg, e.Spec); err != nil {
			return 0, err
		}
	}
	if dir == "" {
		for _, bm := range workload.All() {
			if _, err := bm.Build(resolveSeed(p.seed)); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	t0 := time.Now()
	arch, err := tracefile.OpenArchive(dir)
	if err != nil {
		return 0, err
	}
	tr := harness.NewTraces(arch)
	for _, bm := range workload.All() {
		build := func() (*builder.Unit, error) { return bm.Build(resolveSeed(p.seed)) }
		if _, _, err := tr.MultiRun(ctx, bm.Name, resolveSeed(p.seed), build,
			harness.MultiConfig{Budget: paperBudget}); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// paperRep is what one repetition measured.
type paperRep struct {
	render  string
	wall    time.Duration
	gridLat []time.Duration // grid.Run + Render, per registered grid
	alloc   uint64
	disk    int64
	open    time.Duration
	delta   counters
	stats   runner.Stats
	// traced repetitions only
	grids []gridRun
	jobs  []jobRec
	root  int
}

// gridRun is one registered grid's execution inside a traced repetition.
type gridRun struct {
	name, kind string
	span       int
	start, end time.Time
	cells      []grid.Cell
	trav, reps uint64 // interpreted traversals and replays it made
}

// rep renders the evaluation once through a fresh runner, writing the
// report to disk as a CLI run would. tr non-nil records spans.
func (p *paperEnv) rep(ctx context.Context, tr *Tracer) (paperRep, error) {
	var r paperRep
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := snapshot()
	start := time.Now()
	r.root = tr.Begin("rep", 0, "")
	cfg := grid.Config{Budget: paperBudget, Seed: p.seed}
	if p.archive != "" {
		id := tr.Begin("tracefile.open", r.root, "")
		t0 := time.Now()
		arch, err := tracefile.OpenArchive(p.archive)
		r.open = time.Since(t0)
		tr.End(id)
		if err != nil {
			return r, err
		}
		cfg.Traces = harness.NewTraces(arch)
	}
	rc := runner.Config{Workers: p.workers}
	var log *jobLog
	if tr != nil {
		log = newJobLog()
		rc.OnEvent = log.onEvent
	}
	cfg.Runner = runner.New(rc)
	var b strings.Builder
	for _, sec := range sections {
		parts := make([]string, 0, len(sec.entries))
		for _, name := range sec.entries {
			e, ok := grid.Lookup(name)
			if !ok {
				return r, fmt.Errorf("grid %q not registered", name)
			}
			g := gridRun{name: name, kind: e.Spec.Kind}
			if tr != nil {
				id := tr.Begin("grid.compile", r.root, name)
				cells, _, err := grid.Compile(cfg, e.Spec)
				tr.End(id)
				if err != nil {
					return r, err
				}
				g.cells = cells
			}
			var c0 counters
			if tr != nil {
				c0 = snapshot()
			}
			t0 := time.Now()
			g.span = tr.Begin("grid."+flat(name), r.root, name)
			g.start = time.Now()
			res, err := grid.Run(ctx, cfg, e.Spec)
			g.end = time.Now()
			tr.End(g.span)
			if err != nil {
				return r, fmt.Errorf("%s: %w", name, err)
			}
			id := tr.Begin("render", r.root, name)
			out, err := e.Render(res)
			tr.End(id)
			if err != nil {
				return r, fmt.Errorf("%s: %w", name, err)
			}
			r.gridLat = append(r.gridLat, time.Since(t0))
			if tr != nil {
				d := snapshot().sub(c0)
				g.trav, g.reps = d.traversals, d.replays
				r.grids = append(r.grids, g)
			}
			parts = append(parts, out)
		}
		b.WriteString(strings.Join(parts, sec.sep))
		b.WriteByte('\n')
	}
	r.render = b.String()
	report := filepath.Join(p.work, "report.txt")
	if err := os.WriteFile(report, []byte(r.render), 0o644); err != nil {
		return r, err
	}
	r.wall = time.Since(start)
	tr.End(r.root)
	runtime.ReadMemStats(&m1)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.delta = snapshot().sub(before)
	r.stats = cfg.Runner.Stats()
	r.disk = dirSize(p.work)
	if log != nil {
		r.jobs = log.all()
	}
	return r, nil
}

// attribute splits a traced repetition's runner busy time into layers
// with base-cost traversals of every executed stream, and records each
// job as a span under its grid.
func (p *paperEnv) attribute(r paperRep, tr *Tracer) (*attribution, error) {
	var arch *tracefile.Archive
	if p.archive != "" {
		var err error
		if arch, err = tracefile.OpenArchive(p.archive); err != nil {
			return nil, err
		}
	}
	base := tr.Begin("attribution", 0, "")
	defer tr.End(base)
	a := newAttributor(arch, tr, base)
	at := newAttribution()
	for _, g := range r.grids {
		coords := map[string]grid.Coord{}
		for _, c := range g.cells {
			coords[c.Key] = c.Coord
		}
		var mine []jobRec
		for _, j := range r.jobs {
			if !j.start.Before(g.start) && !j.end.After(g.end) {
				mine = append(mine, j)
			}
		}
		if len(mine) == 0 {
			continue
		}
		trav := float64(g.trav+g.reps) / float64(len(mine))
		for _, j := range mine {
			tr.Add("runner.job", g.span, g.name, j.start, j.end)
			s, ok := parseGroupKey(j.key)
			if !ok {
				c, found := coords[j.key]
				if !found {
					return nil, fmt.Errorf("%s: job %q matches no cell", g.name, j.key)
				}
				s = stream{bench: c.Bench, budget: c.Budget, seed: c.Seed}
			}
			if err := at.add(a, j, s, g.kind, trav, g.start); err != nil {
				return nil, err
			}
		}
	}
	return at, nil
}

// resolveSeed applies the grid layer's seed default (0 selects 1).
func resolveSeed(seed uint64) uint64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
