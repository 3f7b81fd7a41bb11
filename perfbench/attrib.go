package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynloop/internal/harness"
	"dynloop/internal/runner"
	"dynloop/internal/trace"
	"dynloop/internal/tracefile"
	"dynloop/internal/workload"
)

// jobRec is one runner job execution seen through runner.Config.OnEvent.
type jobRec struct {
	key        string
	start, end time.Time
}

// jobLog collects job executions from runner progress events.
type jobLog struct {
	mu     sync.Mutex
	starts map[string]time.Time
	jobs   []jobRec
}

func newJobLog() *jobLog { return &jobLog{starts: map[string]time.Time{}} }

func (l *jobLog) onEvent(ev runner.Event) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	switch ev.Kind {
	case runner.JobStarted:
		l.starts[ev.Key] = now
	case runner.JobDone, runner.JobFailed:
		if st, ok := l.starts[ev.Key]; ok {
			delete(l.starts, ev.Key)
			l.jobs = append(l.jobs, jobRec{key: ev.Key, start: st, end: now})
		}
	}
}

func (l *jobLog) all() []jobRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]jobRec(nil), l.jobs...)
}

// stream names one instruction stream: what a traversal reads.
type stream struct {
	bench        string
	budget, seed uint64
}

// parseGroupKey reads the stream out of a fused group's runner key,
// "g|<len>:<bench>|b<budget>|s<seed>|ba<batch>".
func parseGroupKey(k string) (stream, bool) {
	rest, ok := strings.CutPrefix(k, "g|")
	if !ok {
		return stream{}, false
	}
	ns, rest, ok := strings.Cut(rest, ":")
	n, err := strconv.Atoi(ns)
	if !ok || err != nil || n > len(rest) {
		return stream{}, false
	}
	s := stream{bench: rest[:n]}
	var batch int
	if _, err := fmt.Sscanf(rest[n:], "|b%d|s%d|ba%d", &s.budget, &s.seed, &batch); err != nil {
		return stream{}, false
	}
	return s, true
}

// baseCost is what one traversal of a stream costs without any pass:
// the program build, the bare stream (interpretation, or decoding for a
// replay) and the bare stream plus one loop detector.
type baseCost struct {
	build, base, det time.Duration
	instr, batches   uint64
}

// attributor measures base costs once per stream, by calling the same
// public entry points the grids use with the passes taken away.
type attributor struct {
	arch   *tracefile.Archive // nil: streams are interpreted
	tr     *Tracer
	parent int
	memo   map[stream]baseCost
}

func newAttributor(arch *tracefile.Archive, tr *Tracer, parent int) *attributor {
	return &attributor{arch: arch, tr: tr, parent: parent, memo: map[stream]baseCost{}}
}

func (a *attributor) cost(s stream) (baseCost, error) {
	if c, ok := a.memo[s]; ok {
		return c, nil
	}
	var c baseCost
	var err error
	if a.arch != nil {
		c, err = a.replayCost(s)
	} else {
		c, err = a.interpCost(s)
	}
	if err != nil {
		return c, fmt.Errorf("baseline %s/%d/%d: %w", s.bench, s.budget, s.seed, err)
	}
	a.memo[s] = c
	return c, nil
}

// interpCost times a build, an interpreter-only traversal and a
// detector-only traversal of s.
func (a *attributor) interpCost(s stream) (baseCost, error) {
	bm, err := workload.ByName(s.bench)
	if err != nil {
		return baseCost{}, err
	}
	t0 := time.Now()
	u, err := bm.Build(s.seed)
	t1 := time.Now()
	if err != nil {
		return baseCost{}, err
	}
	a.tr.Add("builder.build", a.parent, s.bench, t0, t1)
	c := baseCost{build: t1.Sub(t0)}
	mc := harness.MultiConfig{Budget: s.budget}
	err = a.minOf(s, &c, func() (uint64, uint64, error) {
		r, err := harness.MultiRun(u, mc)
		return r.Executed, r.Batches, err
	}, func() error {
		_, err := harness.MultiRun(u, mc, harness.NewObserverPass(0))
		return err
	}, "interp.base")
	return c, err
}

// replayCost times a decode-only replay of s into a sink with no passes
// and a replay into one bare loop detector.
func (a *attributor) replayCost(s stream) (baseCost, error) {
	rec, ok := a.arch.Lookup(s.bench, s.seed)
	if !ok || !rec.CanServe(s.budget) {
		return baseCost{}, fmt.Errorf("no recording covers the stream")
	}
	var d tracefile.Decoder
	replay := func(passes ...trace.Pass) (uint64, uint64, error) {
		b := trace.NewBroadcast(0, passes...)
		b.Init()
		n, _, err := rec.Replay(s.budget, &d, b)
		if err != nil {
			return 0, 0, err
		}
		b.Finalize()
		return n, b.Epochs(), nil
	}
	var c baseCost
	err := a.minOf(s, &c, func() (uint64, uint64, error) { return replay() }, func() error {
		_, _, err := replay(harness.NewObserverPass(0))
		return err
	}, "tracefile.base")
	return c, err
}

// baseRounds is how many times each base traversal is timed; the
// fastest counts, so cold caches and preemption do not.
const baseRounds = 3

// minOf alternates the bare stream and the stream with a detector
// baseRounds times, and fills c with the fastest of each.
func (a *attributor) minOf(s stream, c *baseCost, bare func() (uint64, uint64, error), det func() error, bareName string) error {
	var bestBare, bestDet time.Duration
	for i := range baseRounds {
		t0 := time.Now()
		n, batches, err := bare()
		t1 := time.Now()
		if err != nil {
			return err
		}
		if err := det(); err != nil {
			return err
		}
		t2 := time.Now()
		a.tr.Add(bareName, a.parent, s.bench, t0, t1)
		a.tr.Add("loopdet.base", a.parent, s.bench, t1, t2)
		if i == 0 || t1.Sub(t0) < bestBare {
			bestBare = t1.Sub(t0)
		}
		if i == 0 || t2.Sub(t1) < bestDet {
			bestDet = t2.Sub(t1)
		}
		c.instr, c.batches = n, batches
	}
	c.base, c.det = bestBare, bestDet-bestBare
	return nil
}

// attribution splits the busy time of executed runner jobs into layers.
// A job's busy time is its runner execution time; its program build,
// bare stream and detector are the base costs of its stream times the
// traversals it made, and the rest is the passes' self time.
type attribution struct {
	builds                     int
	build, interp, decode, det time.Duration
	instr, batches             uint64
	busy, wait                 time.Duration
	passSelf                   map[string]time.Duration // by grid kind
}

func newAttribution() *attribution {
	return &attribution{passSelf: map[string]time.Duration{}}
}

// merge adds o's totals into at.
func (at *attribution) merge(o *attribution) {
	at.builds += o.builds
	at.build += o.build
	at.interp += o.interp
	at.decode += o.decode
	at.det += o.det
	at.instr += o.instr
	at.batches += o.batches
	at.busy += o.busy
	at.wait += o.wait
	for k, d := range o.passSelf {
		at.passSelf[k] += d
	}
}

// scale returns the per-repetition mean of n merged attributions.
func (at *attribution) scale(n int) *attribution {
	if n <= 1 {
		return at
	}
	div := func(d time.Duration) time.Duration { return d / time.Duration(n) }
	out := &attribution{
		builds: at.builds / n, build: div(at.build), interp: div(at.interp), decode: div(at.decode),
		det: div(at.det), instr: at.instr / uint64(n), batches: at.batches / uint64(n),
		busy: div(at.busy), wait: div(at.wait), passSelf: map[string]time.Duration{},
	}
	for k, d := range at.passSelf {
		out.passSelf[k] = div(d)
	}
	return out
}

// add attributes one executed job of a grid of the given kind that made
// trav stream traversals (interpreted or replayed) and was submitted at
// queued.
func (at *attribution) add(a *attributor, j jobRec, s stream, kind string, trav float64, queued time.Time) error {
	c, err := a.cost(s)
	if err != nil {
		return err
	}
	busy := j.end.Sub(j.start)
	at.busy += busy
	if w := j.start.Sub(queued); w > 0 {
		at.wait += w
	}
	self := busy - time.Duration(trav*float64(c.base+c.det))
	if a.arch == nil {
		at.builds++
		at.build += c.build
		self -= c.build
		at.interp += time.Duration(trav * float64(c.base))
	} else {
		at.decode += time.Duration(trav * float64(c.base))
	}
	at.det += time.Duration(trav * float64(c.det))
	at.instr += uint64(trav*float64(c.instr) + 0.5)
	at.batches += uint64(trav*float64(c.batches) + 0.5)
	at.passSelf[kind] += self
	return nil
}
