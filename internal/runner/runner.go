// Package runner is the parallel experiment orchestrator: it fans
// independent experiment cells (benchmark × policy × table-capacity ×
// ablation jobs) across a bounded pool of goroutines, deduplicates
// repeated cells through a keyed result cache, and streams per-job
// progress events to the caller.
//
// The contract that makes parallel experiment output byte-identical to
// the sequential run is simple: jobs are pure functions of their inputs,
// and Map slots every result by its job index. Concurrency changes only
// the wall-clock schedule, never the results or their order. A single
// Runner may be shared by many drivers (and many concurrent Map calls);
// the worker bound and the cache are runner-wide, so overlapping cells —
// Figure 7's STR column is Figure 6, its STR(3)/4TU cell is Table 2 —
// are computed once per Runner.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dynloop/internal/harness"
	"dynloop/internal/obs"
)

// Config parametrises a Runner.
type Config struct {
	// Workers bounds the number of concurrently executing jobs across
	// every Map call sharing this Runner; 0 selects GOMAXPROCS.
	Workers int
	// OnEvent, when non-nil, receives one event per job transition
	// (start, done, cache hit, failure). It is called from worker
	// goroutines and, for cells MapGroups serves from memory or the
	// disk tier, from the goroutine that submitted them, so it must be
	// safe for concurrent use.
	OnEvent func(Event)
	// Cache, when non-nil, is the second result tier behind the runner's
	// in-memory map: a key that misses memory is looked up here before
	// executing, and every successful execution is written back. With a
	// disk-backed Cache (see internal/store) the runner becomes a
	// memory→disk hierarchy whose results outlive the process. Cache
	// errors never fail jobs — a failing tier reads as a miss and the
	// cell recomputes (counted in Stats.TierErrors).
	Cache Cache
}

// Cache is a pluggable second result tier. Implementations must be safe
// for concurrent use. Get returns ok=false when the key is absent; a
// non-nil error (with ok=false) marks an entry that exists but cannot
// be used — corrupt, version-skewed — and is treated as a miss.
// Put persists a computed result; implementations that cannot encode a
// value should skip it and return nil.
type Cache interface {
	Get(key string) (val any, ok bool, err error)
	Put(key string, val any) error
}

// EventKind says what a progress Event reports.
type EventKind uint8

const (
	// JobStarted fires when a job begins executing on a worker.
	JobStarted EventKind = iota
	// JobDone fires when a job finishes successfully.
	JobDone
	// JobCached fires when a job is satisfied from the result cache
	// (including coalescing onto an identical in-flight job).
	JobCached
	// JobFailed fires when a job returns an error.
	JobFailed
)

// String names the event kind for progress displays.
func (k EventKind) String() string {
	switch k {
	case JobStarted:
		return "start"
	case JobDone:
		return "done"
	case JobCached:
		return "cached"
	case JobFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Event is one per-job progress notification.
type Event struct {
	// Kind is the transition being reported.
	Kind EventKind
	// Key is the job's cache key ("" for uncacheable jobs).
	Key string
	// Label is the job's display label (the Key when unset).
	Label string
	// Err is the job's error for JobFailed events.
	Err error
	// Elapsed is the job's execution time (JobDone and JobFailed).
	Elapsed time.Duration
	// Completed is the runner-lifetime count of successfully finished
	// jobs, including cache hits, at the time of the event.
	Completed uint64
}

// Stats are runner-lifetime counters.
type Stats struct {
	// Submitted counts jobs handed to Map.
	Submitted uint64
	// Executed counts jobs that actually ran (cache misses).
	Executed uint64
	// CacheHits counts jobs satisfied by an already-completed cell.
	CacheHits uint64
	// Coalesced counts jobs that waited on an identical in-flight cell
	// instead of running it again.
	Coalesced uint64
	// Failures counts failed executions; cache-served replays of a
	// failed cell count as CacheHits, not new Failures.
	Failures uint64
	// GroupRuns counts fused group executions (MapGroups): each covers
	// one or more executed cells in a single run. Executed also counts
	// plain Map jobs, which have no group run, so Executed/GroupRuns
	// only measures the fusion factor on a runner used purely through
	// MapGroups.
	GroupRuns uint64
	// DiskHits counts jobs satisfied from the second cache tier
	// (Config.Cache) without executing.
	DiskHits uint64
	// DiskPuts counts results handed to the second tier for write-back
	// (the tier itself may skip values it cannot encode).
	DiskPuts uint64
	// TierErrors counts second-tier operations that failed (treated as
	// misses on Get, dropped on Put).
	TierErrors uint64
	// ReplayRuns counts group executions served by the trace-archive
	// third tier (decode-only replay, no interpretation); see
	// CountTraceRun.
	ReplayRuns uint64
	// RecordRuns counts group executions that interpreted the stream and
	// recorded it into the trace archive for later replays.
	RecordRuns uint64
}

// Job is one independent experiment cell producing a T.
type Job[T any] struct {
	// Key identifies the cell for deduplication: two jobs with the same
	// key on the same Runner compute their result once. The key must
	// capture every input the result depends on (and, because the cache
	// stores untyped results, determine T). Empty keys are never cached.
	Key string
	// Label is what progress events report; the Key is used when empty.
	Label string
	// Run computes the cell. It must be a pure function of the job's
	// inputs and must not submit further jobs to the same Runner (the
	// worker slot it holds could starve its own children).
	Run func(ctx context.Context) (T, error)
}

func (j Job[T]) label() string {
	if j.Label != "" {
		return j.Label
	}
	return j.Key
}

// Runner executes jobs with bounded concurrency and a keyed result
// cache. Create one with New; the zero value is not usable.
type Runner struct {
	onEvent func(Event)
	sem     chan struct{}
	tier2   Cache
	recs    *harness.Recordings

	mu    sync.Mutex
	cache map[string]*entry

	// The Stats counters are children of the package's series (see
	// metrics.go), so each bump also moves the process-wide scrape.
	submitted, executed, cacheHits, coalesced, failures, groupRuns,
	diskHits, diskPuts, tierErrors, replayRuns, recordRuns *obs.Counter

	completed atomic.Uint64
}

// entry is one cache cell; done is closed once val/err are final.
type entry struct {
	done chan struct{}
	val  any
	err  error
}

// New returns a Runner with cfg's worker bound and an empty cache.
func New(cfg Config) *Runner {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		onEvent: cfg.OnEvent,
		sem:     make(chan struct{}, w),
		tier2:   cfg.Cache,
		recs:    harness.NewRecordings(),
		cache:   make(map[string]*entry),

		submitted:  mSubmitted.Child(),
		executed:   mExecuted.Child(),
		cacheHits:  mCacheHits.Child(),
		coalesced:  mCoalesced.Child(),
		failures:   mFailures.Child(),
		groupRuns:  mGroupRuns.Child(),
		diskHits:   mDiskHits.Child(),
		diskPuts:   mDiskPuts.Child(),
		tierErrors: mTierErrors.Child(),
		replayRuns: mReplayRuns.Child(),
		recordRuns: mRecordRuns.Child(),
	}
}

// Recordings returns the control-plane recordings of the streams this
// runner's jobs have traversed: after the first traversal of a
// (benchmark, seed), every later control-only traversal of it on this
// runner replays the recording instead of interpreting (see
// harness.Traverse). They live as long as the runner.
func (r *Runner) Recordings() *harness.Recordings { return r.recs }

// Workers returns the concurrency bound.
func (r *Runner) Workers() int { return cap(r.sem) }

// Stats returns a snapshot of the runner-lifetime counters.
func (r *Runner) Stats() Stats {
	return Stats{
		Submitted:  r.submitted.Value(),
		Executed:   r.executed.Value(),
		CacheHits:  r.cacheHits.Value(),
		Coalesced:  r.coalesced.Value(),
		Failures:   r.failures.Value(),
		GroupRuns:  r.groupRuns.Value(),
		DiskHits:   r.diskHits.Value(),
		DiskPuts:   r.diskPuts.Value(),
		TierErrors: r.tierErrors.Value(),
		ReplayRuns: r.replayRuns.Value(),
		RecordRuns: r.recordRuns.Value(),
	}
}

// CountTraceRun records the outcome of one trace-tier group execution:
// replayed from the archive, or interpreted and recorded into it. The
// runner does not drive the trace tier itself — the execution callback
// does (see grid) — so the callback reports the outcome here to keep
// all scheduling statistics in one place.
func (r *Runner) CountTraceRun(replayed bool) {
	if replayed {
		r.replayRuns.Inc()
	} else {
		r.recordRuns.Inc()
	}
}

// tierGet consults the second cache tier; errors read as misses.
func (r *Runner) tierGet(key string) (any, bool) {
	if r.tier2 == nil || key == "" {
		return nil, false
	}
	v, ok, err := r.tier2.Get(key)
	if err != nil {
		r.tierErrors.Inc()
		return nil, false
	}
	return v, ok
}

// tierPut persists a computed result to the second tier, best effort.
func (r *Runner) tierPut(key string, v any) {
	if r.tier2 == nil || key == "" {
		return
	}
	if err := r.tier2.Put(key, v); err != nil {
		r.tierErrors.Inc()
		return
	}
	r.diskPuts.Inc()
}

func (r *Runner) emit(ev Event) {
	if r.onEvent != nil {
		r.onEvent(ev)
	}
}

// Map runs every job under r's concurrency bound and returns the results
// in job order, so output built from them is identical at any worker
// count. The first failure cancels the jobs still waiting for a worker
// (in-flight jobs run to completion) and is returned; cancelling ctx
// does the same with ctx's error.
func Map[T any](ctx context.Context, r *Runner, jobs []Job[T]) ([]T, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := jobs[i]
			typeOK := func(v any) bool { _, ok := v.(T); return ok }
			v, err := r.do(ctx, job.Key, job.label(), typeOK, func(ctx context.Context) (any, error) {
				return job.Run(ctx)
			})
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			vv, ok := v.(T)
			if !ok {
				errs[i] = typeErr(job.Key, v)
				cancel()
				return
			}
			out[i] = vv
		}(i)
	}
	wg.Wait()
	// Report the job that actually failed, not the cancellation fallout
	// of its siblings; fall back to the first error (caller-cancelled
	// runs have nothing but context errors).
	return collectErrs(out, errs)
}

// do resolves one job through the cache: the first submission of a key
// executes it, identical concurrent submissions wait for that execution,
// and later submissions hit the stored result. typeOK, when non-nil,
// validates a cached value's dynamic type for this job: a stale-typed
// persistent-tier entry is recomputed (and overwritten by the
// write-back) rather than served — the tier must never fail a job —
// while a stale-typed memory entry fails the job.
func (r *Runner) do(ctx context.Context, key, label string, typeOK func(any) bool, fn func(context.Context) (any, error)) (any, error) {
	r.submitted.Inc()
	if key == "" {
		return r.execute(ctx, key, label, fn)
	}
	for {
		r.mu.Lock()
		e, ok := r.cache[key]
		if !ok {
			e = &entry{done: make(chan struct{})}
			r.cache[key] = e
			r.mu.Unlock()
			// The key is claimed; the persistent tier gets one look
			// before the cell is executed for real.
			if v, hit := r.tierGet(key); hit {
				if typeOK == nil || typeOK(v) {
					e.val = v
					close(e.done)
					r.diskHits.Inc()
					r.emit(Event{Kind: JobCached, Key: key, Label: label, Completed: r.completed.Add(1)})
					return e.val, nil
				}
				// Wrong type for this job's key: self-invalidate by
				// recomputing (the write-back overwrites the stale
				// entry), as MapGroups does.
				r.tierErrors.Inc()
			}
			e.val, e.err = r.execute(ctx, key, label, fn)
			if e.err == nil {
				r.tierPut(key, e.val)
			}
			if e.err != nil && isContextErr(e.err) {
				// A cancelled execution is not a result: drop the entry
				// so a later submission (from an uncancelled Map) can
				// compute the cell for real.
				r.mu.Lock()
				delete(r.cache, key)
				r.mu.Unlock()
			}
			close(e.done)
			return e.val, e.err
		}
		r.mu.Unlock()
		coalesced := !e.resolved()
		if coalesced {
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if isContextErr(e.err) {
			// The executor we waited on was cancelled; retry unless we
			// are cancelled too. Nothing is counted for this round: the
			// submission lands in exactly one stats bucket once it
			// resolves for real.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			continue
		}
		return r.serve(e, key, label, coalesced, typeOK)
	}
}

// resolved reports whether e's outcome is final.
func (e *entry) resolved() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// serve settles one submission on the resolved entry e, which must not
// hold a context error: it counts a cache hit, or a coalesced wait when
// the submission waited for e's execution, emits the JobCached or
// JobFailed event and returns e's outcome. A value typeOK rejects (nil
// accepts any) is an error. Runner.do's hit branch and MapGroups'
// inline hits and in-flight waits all settle here.
func (r *Runner) serve(e *entry, key, label string, coalesced bool, typeOK func(any) bool) (any, error) {
	if coalesced {
		r.coalesced.Inc()
	} else {
		r.cacheHits.Inc()
	}
	if e.err != nil {
		// A cached failure still surfaces in the progress stream;
		// Failures counts failed executions, not their replays.
		r.emit(Event{Kind: JobFailed, Key: key, Label: label, Err: e.err, Completed: r.completed.Load()})
		return nil, e.err
	}
	if typeOK != nil && !typeOK(e.val) {
		return nil, typeErr(key, e.val)
	}
	r.emit(Event{Kind: JobCached, Key: key, Label: label, Completed: r.completed.Add(1)})
	return e.val, nil
}

// typeErr reports a cached value of the wrong type for its job. A cache
// key must determine its result type, so a mismatch means two jobs share
// a key (or a persistent tier served a stale type): fail loudly instead
// of panicking.
func typeErr(key string, v any) error {
	return fmt.Errorf("runner: cached value for %q is %T, not the job's result type", key, v)
}

// execute runs fn on a worker slot.
func (r *Runner) execute(ctx context.Context, key, label string, fn func(context.Context) (any, error)) (any, error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-r.sem }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.emit(Event{Kind: JobStarted, Key: key, Label: label, Completed: r.completed.Load()})
	start := time.Now()
	v, err := fn(ctx)
	elapsed := time.Since(start)
	r.executed.Inc()
	mJobSeconds.Observe(elapsed.Seconds())
	if err != nil {
		r.failures.Inc()
		r.emit(Event{Kind: JobFailed, Key: key, Label: label, Err: err, Elapsed: elapsed, Completed: r.completed.Load()})
		return nil, err
	}
	r.emit(Event{Kind: JobDone, Key: key, Label: label, Elapsed: elapsed, Completed: r.completed.Add(1)})
	return v, nil
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
