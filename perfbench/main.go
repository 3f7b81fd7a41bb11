// Command perfbench is dynloop's end-to-end benchmark. It runs one
// workload for a fixed time and prints, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// it reports the end-to-end metrics of untraced repetitions; with
// -trace 1 it alternates untraced and traced repetitions and reports
// the per-layer metrics instead, writing the spans to
// .bench_build/spans/.
//
// Workloads: paper-cold (render the paper's evaluation interpreting
// every stream), paper-replay (the same render replaying a trace
// archive) and serve-mix (a closed-loop request mix against an
// in-process daemon). See README.md.
//
//	go run . -workload paper-cold -seed 1 -seconds 20 -trace 0 -root ..
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynloop/internal/grid"
)

//go:embed meta.json
var metaJSON []byte

// meta is the benchmark's recorded reference data: the default and
// held-out seeds, why each workload exists and which end-to-end metric
// each layer should move, and reference digests of the paper render.
type meta struct {
	Budget      uint64            `json:"budget"`
	DefaultSeed uint64            `json:"default_seed"`
	HeldOutSeed uint64            `json:"held_out_seed"`
	Workloads   []metaWorkload    `json:"workloads"`
	Renders     map[string]string `json:"render_sha256"`
}

type metaWorkload struct {
	Name   string              `json:"name"`
	Why    string              `json:"why"`
	Layers map[string][]string `json:"layers"`
}

// workers bounds the runner and clients: at most two, and never more
// than the host's CPUs.
func workers() int { return min(2, runtime.NumCPU()) }

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "paper-cold, paper-replay or serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed (grid.Config.Seed and the request stream)")
	secs := flag.Int("seconds", 10, "how long to measure repetitions")
	traced := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	root := flag.String("root", ".", "root of the checkout: scratch files go under its .bench_build")
	writeDigests := flag.String("write-digests", "", "record reference render digests for these seeds (e.g. 0-40,1009) into meta.json and exit")
	checkSeeds := flag.Bool("check-seeds", false, "run every workload briefly on the default and held-out seeds and exit non-zero on any failure")
	flag.Parse()

	var m meta
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: meta.json:", err)
		return 1
	}
	if m.Budget != paperBudget {
		fmt.Fprintf(os.Stderr, "perfbench: meta.json digests are for budget %d, the benchmark renders at %d\n", m.Budget, paperBudget)
		return 1
	}
	ctx := context.Background()
	build := filepath.Join(*root, ".bench_build")
	switch {
	case *writeDigests != "":
		if err := recordDigests(ctx, &m, *writeDigests, *root); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *checkSeeds:
		return checkAllSeeds(ctx, m, build, *root)
	}
	res, err := runWorkload(ctx, m, build, *workloadName, *seed, *secs, *traced == 1, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	counts            exactCounts
	notes             []string
}

func runWorkload(ctx context.Context, m meta, build, name string, seed uint64, secs int, traced bool, root string) (result, error) {
	work := filepath.Join(build, "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	prov := provenance(root, name, seed)
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)
	var out *outcome
	var err error
	var tr *Tracer
	if traced {
		tr = NewTracer()
	}
	d := time.Duration(secs) * time.Second
	switch name {
	case "paper-cold", "paper-replay":
		p := &paperEnv{seed: seed, workers: workers(), work: work}
		out, err = runPaper(ctx, p, m, name == "paper-replay", d, tr)
	case "serve-mix":
		e := &serveEnv{seed: seed, workers: workers(), work: work}
		out, err = runServe(ctx, e, d, tr)
	default:
		return result{}, fmt.Errorf("unknown workload %q (paper-cold, paper-replay, serve-mix)", name)
	}
	if err != nil {
		return result{}, err
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	fmt.Println(out.counts.report())
	defs := endToEnd
	if traced {
		defs = perLayer()
		dir := filepath.Join(build, "spans")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := tr.WriteFile(path); err != nil {
			return result{}, err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.Spans()), path)
	}
	ms, err := collect(defs, out.values)
	if err != nil {
		return result{}, err
	}
	for _, d := range defs {
		fmt.Printf("%-32s %14.6g %s\n", d.name, ms[d.name].Value, d.unit)
	}
	if out.attempted > 0 {
		fmt.Printf("failed_ratio %.6g (%d of %d)\n", float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	}
	return result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: ms}, nil
}

// minReps is the fewest measured repetitions a run makes, however long
// they take.
const minReps = 3

// setupCount is how many times an untraced run sets up; setup_s is the
// median of the least-stolen of them.
const setupCount = 9

// runPaper runs paper-cold or paper-replay.
func runPaper(ctx context.Context, p *paperEnv, m meta, replay bool, d time.Duration, tr *Tracer) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, counts: exactCounts{}}
	want, ok := m.Renders[strconv.FormatUint(p.seed, 10)]
	if !ok {
		ref, err := referenceRender(ctx, p.seed, p.workers)
		if err != nil {
			return out, err
		}
		want = digest(ref)
		out.notes = append(out.notes, "reference: no recorded digest for this seed; rendered one with expt.All")
	}
	n := setupCount
	if tr != nil {
		n = 1
	}
	var recordS []float64
	setupS, setupSteal, err := setups(n, func(i int) error {
		dir := ""
		if replay {
			dir = filepath.Join(p.work, fmt.Sprintf("archive-%d", i))
			if p.archive != "" {
				os.RemoveAll(p.archive)
			}
			p.archive = dir
		}
		rec, err := p.setup(ctx, dir)
		recordS = append(recordS, rec.Seconds())
		return err
	})
	if err != nil {
		return out, err
	}
	check := func(r paperRep, err error) bool {
		out.attempted++
		if err == nil && digest(r.render) != want {
			err = fmt.Errorf("render digest %s, want %s", digest(r.render)[:16], want[:16])
		}
		if err != nil {
			out.failed++
			out.notes = append(out.notes, "failed repetition: "+err.Error())
			return false
		}
		out.counts.add("interp.traversals", r.delta.traversals)
		out.counts.add("interp.instr", r.delta.instr)
		out.counts.add("tracefile.replays", r.delta.replays)
		out.counts.add("tracefile.events", r.delta.events)
		out.counts.add("runner.group_runs", r.stats.GroupRuns)
		return true
	}
	if tr != nil {
		return paperLayers(ctx, p, out, tr, check, median(recordS))
	}
	var s samples
	s.repeat(d, func() bool {
		r, err := p.rep(ctx, nil)
		if !check(r, err) {
			return false
		}
		s.add(r.wall, r.alloc, r.disk, r.gridLat)
		return true
	})
	s.report(out, setupS, setupSteal, "grid requests")
	return out, nil
}

// paperLayers makes one untraced and one traced repetition and reports
// the per-layer metrics of the traced one.
func paperLayers(ctx context.Context, p *paperEnv, out *outcome, tr *Tracer,
	check func(paperRep, error) bool, recordS float64) (*outcome, error) {
	u, err := p.rep(ctx, nil)
	if !check(u, err) {
		return out, nil
	}
	t, err := p.rep(ctx, tr)
	if !check(t, err) {
		return out, nil
	}
	at, err := p.attribute(t, tr)
	if err != nil {
		return out, err
	}
	v := out.values
	layerValues(v, at)
	v["interp.traversals"] = float64(t.delta.traversals)
	v["interp.instr"] = float64(t.delta.instr)
	v["tracefile.open_s"] = t.open.Seconds()
	v["tracefile.replays"] = float64(t.delta.replays)
	v["tracefile.events"] = float64(t.delta.events)
	if p.archive != "" {
		v["tracefile.record_s"] = recordS
	}
	for _, g := range t.grids {
		v["grid."+flat(g.name)+".s"] = g.end.Sub(g.start).Seconds()
		v["grid."+flat(g.name)+".traversals"] = float64(g.trav + g.reps)
	}
	v["runner.jobs"] = float64(t.stats.Submitted)
	v["runner.executed"] = float64(t.stats.Executed)
	v["runner.cache_hits"] = float64(t.stats.CacheHits + t.stats.Coalesced)
	v["runner.group_runs"] = float64(t.stats.GroupRuns)
	v["runner.disk_hits"] = float64(t.stats.DiskHits)
	spans := tr.Spans()
	v["render.s"] = sumByName(spans, "render").Seconds()
	v["grid.compile_s"] = sumByName(spans, "grid.compile").Seconds()
	v["trace.unattributed_share"] = unattributed(spans, []int{t.root})
	v["trace.overhead_s"] = (t.wall - u.wall).Seconds()
	out.notes = append(out.notes, fmt.Sprintf("traced wall %.4fs, untraced wall %.4fs", t.wall.Seconds(), u.wall.Seconds()))
	return out, nil
}

// layerValues reports an attribution.
func layerValues(v map[string]float64, at *attribution) {
	v["builder.builds"] = float64(at.builds)
	v["builder.build_s"] = at.build.Seconds()
	v["interp.busy_s"] = at.interp.Seconds()
	v["tracefile.busy_s"] = at.decode.Seconds()
	v["loopdet.busy_s"] = at.det.Seconds()
	if at.instr > 0 {
		v["interp.ns_per_instr"] = float64(at.interp.Nanoseconds()) / float64(at.instr)
		v["tracefile.ns_per_event"] = float64(at.decode.Nanoseconds()) / float64(at.instr)
		v["loopdet.ns_per_instr"] = float64(at.det.Nanoseconds()) / float64(at.instr)
	}
	for _, k := range passKinds {
		v["pass."+k+".self_s"] = at.passSelf[k].Seconds()
	}
	v["trace.epochs"] = float64(at.batches)
	v["runner.queue_wait_s"] = at.wait.Seconds()
	v["runner.busy_s"] = at.busy.Seconds()
}

// unattributed is the share of the root spans' time that none of their
// child spans covers, over all the given roots.
func unattributed(spans []Span, roots []int) float64 {
	self := selfTimes(spans)
	var s, total time.Duration
	for _, id := range roots {
		s += self[id]
		total += spans[id-1].Dur()
	}
	if total <= 0 {
		return 0
	}
	return s.Seconds() / total.Seconds()
}

// runServe runs serve-mix.
func runServe(ctx context.Context, e *serveEnv, d time.Duration, tr *Tracer) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, counts: exactCounts{}}
	n := setupCount
	if tr != nil {
		n = 1
	}
	var warm map[string]*grid.Result
	setupS, setupSteal, err := setups(n, func(i int) error {
		dir := filepath.Join(e.work, fmt.Sprintf("store-%d", i))
		w, err := e.setup(ctx, dir)
		if i == 0 {
			e.golden, warm = dir, w
		} else {
			os.RemoveAll(dir)
		}
		return err
	})
	if err != nil {
		return out, err
	}
	if err := e.prepare(ctx, warm); err != nil {
		return out, fmt.Errorf("preparing the request stream: %w", err)
	}
	check := func(r serveRep, err error) bool {
		if err != nil {
			out.attempted++
			out.failed++
			out.notes = append(out.notes, "failed repetition: "+err.Error())
			return false
		}
		out.attempted += len(e.mix)
		out.failed += r.failed
		for _, s := range r.errs {
			out.notes = append(out.notes, "failed request: "+s)
		}
		out.counts.add("interp.traversals", r.delta.traversals)
		out.counts.add("interp.instr", r.delta.instr)
		out.counts.add("runner.group_runs", r.rstats.GroupRuns)
		out.counts.add("store.puts", r.sstats.Puts)
		out.counts.add("store.gets", r.sstats.Gets)
		return true
	}
	if tr != nil {
		return serveLayers(ctx, e, out, tr, check)
	}
	var s samples
	s.repeat(d, func() bool {
		r, err := e.rep(ctx, nil)
		if !check(r, err) {
			return false
		}
		s.add(r.wall, r.alloc, r.disk, r.lat)
		return true
	})
	s.report(out, setupS, setupSteal, "HTTP requests")
	return out, nil
}

// servePairs is how many untraced/traced repetition pairs a traced
// serve-mix run makes.
const servePairs = 5

// serveLayers alternates untraced and traced repetitions and reports
// the per-layer metrics of the traced ones: counts from the first,
// times as means, server latencies pooled.
func serveLayers(ctx context.Context, e *serveEnv, out *outcome, tr *Tracer,
	check func(serveRep, error) bool) (*outcome, error) {
	var untracedW, tracedW []float64
	var traced []serveRep
	for range servePairs {
		u, err := e.rep(ctx, nil)
		if !check(u, err) {
			return out, nil
		}
		t, err := e.rep(ctx, tr)
		if !check(t, err) {
			return out, nil
		}
		untracedW = append(untracedW, u.wall.Seconds())
		tracedW = append(tracedW, t.wall.Seconds())
		traced = append(traced, t)
	}
	a := newAttributor(nil, tr, 0)
	sum := newAttribution()
	srvLat := map[string][]float64{}
	var open, getEach []float64
	var roots []int
	for _, t := range traced {
		at, err := e.attribute(a, t, tr)
		if err != nil {
			return out, err
		}
		sum.merge(at)
		for k, ls := range t.srvLog.lat {
			srvLat[k] = append(srvLat[k], millis(ls)...)
		}
		open = append(open, t.open.Seconds())
		getEach = append(getEach, float64(t.getEach.Nanoseconds())/1e3)
		roots = append(roots, t.root)
	}
	n := len(traced)
	v := out.values
	layerValues(v, sum.scale(n))
	spans := tr.Spans()
	t := traced[0]
	v["interp.traversals"] = float64(t.delta.traversals)
	v["interp.instr"] = float64(t.delta.instr)
	v["runner.jobs"] = float64(t.rstats.Submitted)
	v["runner.executed"] = float64(t.rstats.Executed)
	v["runner.cache_hits"] = float64(t.rstats.CacheHits + t.rstats.Coalesced)
	v["runner.group_runs"] = float64(t.rstats.GroupRuns)
	v["runner.disk_hits"] = float64(t.rstats.DiskHits)
	v["grid.compile_s"] = sumByName(spans, "grid.compile").Seconds() / float64(n)
	v["wire.decode_s"] = sumByName(spans, "wire.decode").Seconds() / float64(n)
	v["codec.frames"] = float64(t.frames)
	v["store.open_s"] = median(open)
	v["store.gets"] = float64(t.sstats.Gets)
	v["store.hits"] = float64(t.sstats.Hits)
	v["store.puts"] = float64(t.sstats.Puts)
	v["store.put_bytes"] = float64(t.delta.putBytes)
	v["store.get_us"] = median(getEach)
	kinds := make([]string, 0, len(srvLat))
	for k := range srvLat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var pcts []string
	for _, k := range kinds {
		v["server."+k+".p50_ms"] = median(srvLat[k])
		pct, p99, _ := tail(srvLat[k])
		v["server."+k+".p99_ms"] = p99
		pcts = append(pcts, fmt.Sprintf("%s p%.4g of %d", k, pct, len(srvLat[k])))
	}
	v["server.shed"] = float64(t.delta.shed)
	v["trace.unattributed_share"] = unattributed(spans, roots)
	v["trace.overhead_s"] = median(tracedW) - median(untracedW)
	out.notes = append(out.notes,
		fmt.Sprintf("traced: %d repetitions; server tails: %s", n, strings.Join(pcts, ", ")),
		fmt.Sprintf("traced wall %.4fs, untraced wall %.4fs (medians)", median(tracedW), median(untracedW)))
	return out, nil
}
