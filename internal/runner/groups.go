package runner

import (
	"context"
	"fmt"
	"slices"
	"strings"
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
// fused instead of re-traversing it once per cell. exec must store the
// result of every cell i of idx in out[i] (out is indexed like jobs, and
// exec writes no other element); each result is cached under its cell's
// Key. Like Job.Run, exec must be a pure function of its cells' inputs
// and must not submit further work to the same Runner.
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
//
// The cells a call claims in one group share one done signal, closed
// once every one of them is resolved: by the group's execution, or by
// the persistent tier when each of them hits it. A waiter on such a
// cell, in this call or another, wakes then.
func MapGroups[T any](ctx context.Context, r *Runner, jobs []GroupJob[T],
	exec func(ctx context.Context, group string, idx []int, out []T) error) ([]T, error) {
	r.submitted.Add(uint64(len(jobs)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := &groupCall[T]{r: r, jobs: jobs, exec: exec, out: make([]T, len(jobs)), cells: make([]cell, len(jobs))}

	// Lookup pass, under one lock: every keyed cell finds its entry.
	// Unkeyed cells always execute.
	misses := 0
	r.mu.Lock()
	for i := range jobs {
		if key := jobs[i].Key; key != "" {
			c.cells[i].e = r.cache[key]
		}
		if c.cells[i].e == nil {
			misses++
		}
	}
	r.mu.Unlock()

	// Claim pass, only when some cell missed: the cells are sorted into
	// their groups outside the lock, then every missing keyed cell that
	// is still missing claims an entry, which shares its group's done
	// signal. New entries come from one slab.
	if misses > 0 {
		c.group()
		slab := make([]entry, misses)
		r.mu.Lock()
		for i := range jobs {
			cl := &c.cells[i]
			key := jobs[i].Key
			switch {
			case cl.e != nil:
				continue
			case key == "":
				cl.own = true
				continue
			}
			if e, ok := r.cache[key]; ok {
				cl.e = e // claimed since the lookup, perhaps by this call
				continue
			}
			g := &c.groups[cl.g]
			if g.done == nil {
				g.done = make(chan struct{})
			}
			e := &slab[0]
			slab = slab[1:]
			e.done = g.done
			r.cache[key] = e
			cl.e, cl.own = e, true
		}
		r.mu.Unlock()
	}

	// Dispatch pass, in job order: serve resolved entries inline, give
	// each claimed cell one look in the persistent tier, and leave the
	// rest to execute with their groups or wait on other claims.
	waiters := 0
	for i := range jobs {
		cl := &c.cells[i]
		switch {
		case !cl.own && cl.e.resolved() && !isContextErr(cl.e.err):
			c.settle(i, cl.e, false)
		case !cl.own:
			cl.wait = true
			waiters++
		case cl.e != nil && c.diskHit(i, cl.e):
		default:
			cl.exec = true
		}
	}
	var runs []*groupRun
	if misses > 0 {
		runs = c.pending()
	}
	if len(runs) == 0 && waiters == 0 {
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
	for _, g := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.execGroup(g)
		}()
	}
	for i := range c.cells {
		if !c.cells[i].wait {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.wait(i, c.cells[i].e)
		}()
	}
	wg.Wait()
	return collectErrs(c.out, c.errs)
}

// cell is one job of a MapGroups call: its cache entry as the claim
// pass found it, its group, and what the dispatch pass left it to do.
// own marks a cell this call claimed (or an unkeyed cell, which has no
// entry); exec a cell its group executes; wait a cell that waits on
// another claim.
type cell struct {
	e               *entry
	g               int32
	own, exec, wait bool
}

// groupRun is one execution group of a MapGroups call: idx are its
// cells in job order, and done is the signal its claimed cells share
// (nil while it has claimed none).
type groupRun struct {
	idx  []int
	done chan struct{}
}

// groupCall is the state of one MapGroups call. ctx and cancel are set
// only once something has to execute or wait, and errs once a cell has
// failed or goroutines start.
type groupCall[T any] struct {
	r      *Runner
	jobs   []GroupJob[T]
	exec   func(ctx context.Context, group string, idx []int, out []T) error
	ctx    context.Context
	cancel context.CancelFunc
	out    []T
	errs   []error
	cells  []cell
	groups []groupRun // in order of first appearance
}

// group sorts the jobs into their groups: order is one flat index,
// sorted stably by Group, so each group's cells are one run of it in
// job order, and the groups are numbered in order of first appearance.
func (c *groupCall[T]) group() {
	jobs := c.jobs
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(jobs[a].Group, jobs[b].Group) })
	n := 0
	for k, i := range order {
		if k == 0 || jobs[i].Group != jobs[order[k-1]].Group {
			n++
		}
	}
	c.groups = make([]groupRun, 0, n)
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && jobs[order[hi]].Group == jobs[order[lo]].Group {
			hi++
		}
		c.groups = append(c.groups, groupRun{idx: order[lo:hi:hi]})
		lo = hi
	}
	slices.SortFunc(c.groups, func(a, b groupRun) int { return a.idx[0] - b.idx[0] })
	for g := range c.groups {
		for _, i := range c.groups[g].idx {
			c.cells[i].g = int32(g)
		}
	}
}

// pending cuts each group down to the cells it executes, and returns the
// groups left with any. A group whose claimed cells all hit the
// persistent tier is resolved: its done signal closes here.
func (c *groupCall[T]) pending() []*groupRun {
	var runs []*groupRun
	for gi := range c.groups {
		g := &c.groups[gi]
		idx := g.idx[:0]
		for _, i := range g.idx {
			if c.cells[i].exec {
				idx = append(idx, i)
			}
		}
		g.idx = idx
		switch {
		case len(idx) > 0:
			if runs == nil {
				runs = make([]*groupRun, 0, len(c.groups)-gi)
			}
			runs = append(runs, g)
		case g.done != nil:
			close(g.done)
		}
	}
	return runs
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
// it joins its group's execution: a hit settles the cell's entry at
// once, and its group's done signal announces it (see pending and
// resolve), keeping the cell out of this call's traversals.
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
	c.out[i] = vv
	r.diskHits.Inc()
	r.emit(Event{Kind: JobCached, Key: job.Key, Label: job.label(), Completed: r.completed.Add(1)})
	return true
}

// resolve records one group outcome: the results exec stored in out,
// or a shared error. It finalises the cache entries the group claimed
// and then closes its done signal. Entries resolved with a context
// error are dropped from the cache first, so waiters retry and a later
// uncancelled call recomputes the cell (as in Runner.do).
func (c *groupCall[T]) resolve(g *groupRun, err error) {
	r := c.r
	if err != nil {
		c.cancel()
	}
	dropped := err != nil && isContextErr(err)
	if dropped {
		r.mu.Lock()
	}
	for _, i := range g.idx {
		if err != nil {
			c.errs[i] = err
		}
		e := c.cells[i].e
		if e == nil {
			continue
		}
		switch {
		case dropped:
			e.err = err
			delete(r.cache, c.jobs[i].Key)
		case err != nil:
			e.err = err
		default:
			e.val = c.out[i]
			r.tierPut(c.jobs[i].Key, c.out[i])
		}
	}
	if dropped {
		r.mu.Unlock()
	}
	if g.done != nil {
		close(g.done)
	}
}

// execGroup runs exec for the group's cells on one worker slot.
func (c *groupCall[T]) execGroup(g *groupRun) {
	r, ctx, idx := c.r, c.ctx, g.idx
	label := c.jobs[idx[0]].label()
	if len(idx) > 1 {
		label = fmt.Sprintf("%s (+%d fused)", label, len(idx)-1)
	}
	group := c.jobs[idx[0]].Group
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		c.resolve(g, ctx.Err())
		return
	}
	defer func() { <-r.sem }()
	if err := ctx.Err(); err != nil {
		c.resolve(g, err)
		return
	}
	r.emit(Event{Kind: JobStarted, Key: group, Label: label, Completed: r.completed.Load()})
	start := time.Now()
	err := c.exec(ctx, group, idx, c.out)
	elapsed := time.Since(start)
	r.groupRuns.Inc()
	mJobSeconds.Observe(elapsed.Seconds())
	if err != nil {
		r.failures.Inc()
		r.emit(Event{Kind: JobFailed, Key: group, Label: label, Err: err, Elapsed: elapsed, Completed: r.completed.Load()})
		c.resolve(g, err)
		return
	}
	r.executed.Add(uint64(len(idx)))
	r.emit(Event{Kind: JobDone, Key: group, Label: label, Elapsed: elapsed, Completed: r.completed.Add(uint64(len(idx)))})
	c.resolve(g, nil)
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
			g := &groupRun{idx: []int{i}, done: make(chan struct{})}
			next = &entry{done: g.done}
			r.cache[key] = next
			r.mu.Unlock()
			c.cells[i].e = next
			c.execGroup(g)
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
