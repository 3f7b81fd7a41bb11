package runner

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// GroupJob is one experiment cell of a fusable group. Key has Job.Key's
// cache semantics (cells are deduplicated and cached individually, so a
// fused cell still short-circuits a later per-cell submission and vice
// versa). Group names the execution group: cells of one MapGroups call
// that share a Group value — in the experiment drivers, cells that
// analyse the same (benchmark, budget) instruction stream — and miss the
// cache are executed together in a single fused run.
type GroupJob[T any] struct {
	// Key identifies the cell for deduplication (see Job.Key). Empty
	// keys are never cached.
	Key string
	// Group is the execution-group key. It must capture everything that
	// determines the shared input of the fused execution (for stream
	// analyses: the benchmark, budget, seed and batch size), and cells
	// with equal Group values must be executable in one call.
	Group string
	// Label is what progress events report; the Key (or Group) is used
	// when empty.
	Label string
}

func (j GroupJob[T]) label() string {
	switch {
	case j.Label != "":
		return j.Label
	case j.Key != "":
		return j.Key
	default:
		return j.Group
	}
}

// MapGroups resolves cells through the runner's cache exactly like Map —
// results return in job order, identical at any worker count — but
// executes the cache-missing cells group by group: all missing cells
// sharing a Group value are handed to exec in one call, holding one
// worker slot, so cells that can share one traversal of their input run
// fused instead of re-traversing it once per cell. exec must return one
// result per index of idx, in order; each result is cached under its
// cell's Key. Like Job.Run, exec must be a pure function of its cells'
// inputs and must not submit further work to the same Runner.
//
// Cached and in-flight cells are served exactly as in Map (JobCached
// events, CacheHits/Coalesced stats). A cell whose result is already in
// memory is served on the calling goroutine, in job order; goroutines
// start only for executed groups and for cells still in flight
// elsewhere. A cached failure fails the call and cancels the groups it
// claimed that have not started. Executed groups emit one JobStarted/JobDone pair labelled
// after their first cell, count one GroupRuns stat, and count every
// covered cell in Executed. A call whose ctx is already done returns
// ctx's error without resolving anything. MapGroups only reads jobs, so
// a caller may share one job list across concurrent calls.
func MapGroups[T any](ctx context.Context, r *Runner, jobs []GroupJob[T],
	exec func(ctx context.Context, group string, idx []int) ([]T, error)) ([]T, error) {
	r.submitted.Add(uint64(len(jobs)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := &groupCall[T]{r: r, jobs: jobs, exec: exec, out: make([]T, len(jobs))}

	// Claim pass, under one lock: every keyed cell finds its entry or
	// claims a new one. Unkeyed cells always execute.
	cells := make([]cellEntry, len(jobs))
	r.mu.Lock()
	for i := range jobs {
		key := jobs[i].Key
		if key == "" {
			cells[i].own = true
			continue
		}
		if e, ok := r.cache[key]; ok {
			cells[i].e = e
			continue
		}
		e := &entry{done: make(chan struct{})}
		r.cache[key] = e
		cells[i] = cellEntry{e: e, own: true}
	}
	r.mu.Unlock()

	// Dispatch pass, in job order: serve resolved entries inline, give
	// each claimed cell one look in the persistent tier, and sort the
	// rest into fused groups (in first-appearance order, so the schedule
	// is deterministic) and waits on other callers' claims.
	var (
		groupOrder   []string
		groupIdx     map[string][]int
		groupEntries map[string][]*entry
		waiters      []int
	)
	for i := range jobs {
		job, e := &jobs[i], cells[i].e
		switch {
		case !cells[i].own && e.resolved() && !isContextErr(e.err):
			c.settle(i, e, false)
			continue
		case !cells[i].own:
			waiters = append(waiters, i)
			continue
		case e != nil && c.diskHit(i, e):
			continue
		}
		if groupIdx == nil {
			groupIdx, groupEntries = map[string][]int{}, map[string][]*entry{}
		}
		if _, ok := groupIdx[job.Group]; !ok {
			groupOrder = append(groupOrder, job.Group)
		}
		groupIdx[job.Group] = append(groupIdx[job.Group], i)
		groupEntries[job.Group] = append(groupEntries[job.Group], e)
	}
	if len(groupOrder) == 0 && len(waiters) == 0 {
		return collectErrs(c.out, c.errs)
	}

	c.ctx, c.cancel = context.WithCancel(ctx)
	defer c.cancel()
	if c.errs != nil {
		c.cancel() // a cell served inline failed
	} else {
		c.errs = make([]error, len(jobs))
	}
	var wg sync.WaitGroup
	for _, g := range groupOrder {
		idx, entries := groupIdx[g], groupEntries[g]
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.execGroup(idx, entries)
		}()
	}
	for _, i := range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.wait(i, cells[i].e)
		}()
	}
	wg.Wait()
	return collectErrs(c.out, c.errs)
}

// cellEntry is a cell's cache entry as the claim pass found it; own
// marks a cell this call executes (a new claim, or an unkeyed cell
// with no entry).
type cellEntry struct {
	e   *entry
	own bool
}

// groupCall is the state of one MapGroups call. ctx and cancel are set
// only once something has to execute or wait, and errs once a cell has
// failed or goroutines start.
type groupCall[T any] struct {
	r      *Runner
	jobs   []GroupJob[T]
	exec   func(ctx context.Context, group string, idx []int) ([]T, error)
	ctx    context.Context
	cancel context.CancelFunc
	out    []T
	errs   []error
}

func (c *groupCall[T]) typeOK(v any) bool { _, ok := v.(T); return ok }

// settle serves cell i from the resolved entry e (see Runner.serve). A
// failure cancels the call's executed groups, once there are any.
func (c *groupCall[T]) settle(i int, e *entry, coalesced bool) {
	job := &c.jobs[i]
	v, err := c.r.serve(e, job.Key, job.label(), coalesced, c.typeOK)
	if err != nil {
		if c.errs == nil {
			c.errs = make([]error, len(c.jobs))
		}
		c.errs[i] = err
		if c.cancel != nil {
			c.cancel()
		}
		return
	}
	c.out[i], _ = v.(T)
}

// diskHit gives claimed cell i one look in the persistent tier before
// it joins a fused group: a hit resolves the claim at once and keeps the
// cell out of this call's traversals.
func (c *groupCall[T]) diskHit(i int, e *entry) bool {
	r, job := c.r, &c.jobs[i]
	v, hit := r.tierGet(job.Key)
	if !hit {
		return false
	}
	vv, ok := v.(T)
	if !ok {
		// Wrong type for this job's key: recompute (the write-back
		// overwrites the stale entry).
		r.tierErrors.Inc()
		return false
	}
	e.val = v
	close(e.done)
	c.out[i] = vv
	r.diskHits.Inc()
	r.emit(Event{Kind: JobCached, Key: job.Key, Label: job.label(), Completed: r.completed.Add(1)})
	return true
}

// resolve records one group outcome: per-cell results or a shared
// error, finalising the cache entries the group claimed (nil for
// uncacheable cells). Entries resolved with a context error are
// dropped from the cache before done closes, so waiters retry and a
// later uncancelled call recomputes the cell (as in Runner.do).
func (c *groupCall[T]) resolve(idx []int, entries []*entry, vals []T, err error) {
	r := c.r
	if err != nil {
		c.cancel()
	}
	for j, i := range idx {
		if err != nil {
			c.errs[i] = err
		} else {
			c.out[i] = vals[j]
		}
		e := entries[j]
		if e == nil {
			continue
		}
		if err != nil {
			e.err = err
		} else {
			e.val = vals[j]
			r.tierPut(c.jobs[i].Key, vals[j])
		}
		if err != nil && isContextErr(err) {
			r.mu.Lock()
			delete(r.cache, c.jobs[i].Key)
			r.mu.Unlock()
		}
		close(e.done)
	}
}

// execGroup runs exec for the claimed cells on one worker slot.
func (c *groupCall[T]) execGroup(idx []int, entries []*entry) {
	r, ctx := c.r, c.ctx
	label := c.jobs[idx[0]].label()
	if len(idx) > 1 {
		label = fmt.Sprintf("%s (+%d fused)", label, len(idx)-1)
	}
	group := c.jobs[idx[0]].Group
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		c.resolve(idx, entries, nil, ctx.Err())
		return
	}
	defer func() { <-r.sem }()
	if err := ctx.Err(); err != nil {
		c.resolve(idx, entries, nil, err)
		return
	}
	r.emit(Event{Kind: JobStarted, Key: group, Label: label, Completed: r.completed.Load()})
	start := time.Now()
	vals, err := c.exec(ctx, group, idx)
	elapsed := time.Since(start)
	r.groupRuns.Inc()
	mJobSeconds.Observe(elapsed.Seconds())
	if err == nil && len(vals) != len(idx) {
		err = fmt.Errorf("runner: group %q returned %d results for %d cells", group, len(vals), len(idx))
	}
	if err != nil {
		r.failures.Inc()
		r.emit(Event{Kind: JobFailed, Key: group, Label: label, Err: err, Elapsed: elapsed, Completed: r.completed.Load()})
		c.resolve(idx, entries, nil, err)
		return
	}
	r.executed.Add(uint64(len(idx)))
	r.emit(Event{Kind: JobDone, Key: group, Label: label, Elapsed: elapsed, Completed: r.completed.Add(uint64(len(idx)))})
	c.resolve(idx, entries, vals, nil)
}

// wait resolves cell i through the entry e, which another claim held
// in flight when the call dispatched (Runner.do's waiter branch): the
// cell counts as coalesced onto that execution. If the claim it waited
// on was cancelled, it retries: it claims and runs the cell as a
// singleton group if the entry is gone, or takes the entry's new claim,
// served at once when already resolved.
func (c *groupCall[T]) wait(i int, e *entry) {
	r, key := c.r, c.jobs[i].Key
	for {
		select {
		case <-e.done:
		case <-c.ctx.Done():
			c.errs[i] = c.ctx.Err()
			return
		}
		if !isContextErr(e.err) {
			c.settle(i, e, true)
			return
		}
		if err := c.ctx.Err(); err != nil {
			c.errs[i] = err
			return
		}
		r.mu.Lock()
		next, ok := r.cache[key]
		if !ok {
			next = &entry{done: make(chan struct{})}
			r.cache[key] = next
			r.mu.Unlock()
			c.execGroup([]int{i}, []*entry{next})
			return
		}
		r.mu.Unlock()
		if next.resolved() && !isContextErr(next.err) {
			c.settle(i, next, false)
			return
		}
		e = next
	}
}

// collectErrs implements Map's error policy: report the job that
// actually failed, not the cancellation fallout of its siblings, falling
// back to the first (context) error.
func collectErrs[T any](out []T, errs []error) ([]T, error) {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !isContextErr(err) {
			return nil, err
		}
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}
