package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// The tests below pin MapGroups' dispatch of cells it does not execute:
// a cell whose entry is resolved is served on the calling goroutine, a
// cell still in flight elsewhere waits on its own goroutine, and the
// stats of every call sequence are what the goroutine-per-hit dispatch
// counted.

// keyedJobs returns one group job per key, all in group g.
func keyedJobs(g string, keys ...string) []GroupJob[int] {
	jobs := make([]GroupJob[int], len(keys))
	for i, k := range keys {
		jobs[i] = GroupJob[int]{Key: k, Group: g}
	}
	return jobs
}

// TestMapGroupsInlineStats: a resolved hit, a wait on an in-flight
// claim and a disk hit land in the same stats buckets as before.
func TestMapGroupsInlineStats(t *testing.T) {
	ctx := context.Background()
	var runs atomic.Uint64
	exec := groupExec(func(i int) int { return i + 1 }, &runs)

	t.Run("resolved", func(t *testing.T) {
		r := New(Config{Workers: 2})
		jobs := keyedJobs("g", "a", "b", "c")
		for range 2 {
			out, err := MapGroups(ctx, r, jobs, exec)
			if err != nil || out[0] != 1 || out[1] != 2 || out[2] != 3 {
				t.Fatalf("out = %v, %v", out, err)
			}
		}
		want := Stats{Submitted: 6, Executed: 3, CacheHits: 3, GroupRuns: 1}
		if s := r.Stats(); s != want {
			t.Fatalf("stats = %+v, want %+v", s, want)
		}
	})

	t.Run("in flight", func(t *testing.T) {
		r := New(Config{Workers: 2})
		started, gate, dispatched := make(chan struct{}), make(chan struct{}), make(chan struct{})
		first := make(chan error, 1)
		go func() {
			_, err := MapGroups(ctx, r, keyedJobs("gx", "x"), func(context.Context, string, []int) ([]int, error) {
				close(started)
				<-gate
				return []int{7}, nil
			})
			first <- err
		}()
		<-started
		// The second call finds x in flight. Its own group y runs only
		// after the call has dispatched every cell, so by the time y
		// signals, x is known to be a wait.
		jobs := []GroupJob[int]{{Key: "x", Group: "gx"}, {Key: "y", Group: "gy"}}
		out, err := MapGroups(ctx, r, jobs, func(_ context.Context, g string, idx []int) ([]int, error) {
			close(dispatched)
			close(gate)
			return []int{8}, nil
		})
		if err != nil || out[0] != 7 || out[1] != 8 {
			t.Fatalf("out = %v, %v", out, err)
		}
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		want := Stats{Submitted: 3, Executed: 2, Coalesced: 1, GroupRuns: 2}
		if s := r.Stats(); s != want {
			t.Fatalf("stats = %+v, want %+v", s, want)
		}
	})

	t.Run("disk", func(t *testing.T) {
		c := newFakeCache()
		c.m["a"], c.m["c"] = 10, 30
		r := New(Config{Workers: 2, Cache: c})
		out, err := MapGroups(ctx, r, keyedJobs("g", "a", "b", "c"), exec)
		if err != nil || out[0] != 10 || out[1] != 2 || out[2] != 30 {
			t.Fatalf("out = %v, %v", out, err)
		}
		// A second call is all memory hits: the disk is not asked again.
		gets := c.gets
		if _, err := MapGroups(ctx, r, keyedJobs("g", "a", "b", "c"), exec); err != nil {
			t.Fatal(err)
		}
		if c.gets != gets {
			t.Fatalf("memory hits consulted the disk tier (%d extra gets)", c.gets-gets)
		}
		want := Stats{Submitted: 6, Executed: 1, CacheHits: 3, GroupRuns: 1, DiskHits: 2, DiskPuts: 1}
		if s := r.Stats(); s != want {
			t.Fatalf("stats = %+v, want %+v", s, want)
		}
	})
}

// TestMapGroupsInlineCachedFailure: a cached failure served inline
// fails the call with its own error and cancels the call's claimed
// groups, which never execute and stay uncached for a later call.
func TestMapGroupsInlineCachedFailure(t *testing.T) {
	ctx := context.Background()
	r := New(Config{Workers: 2})
	boom := errors.New("boom")
	if _, err := MapGroups(ctx, r, keyedJobs("gf", "f"), func(context.Context, string, []int) ([]int, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("first call: err = %v, want boom", err)
	}
	var runs atomic.Uint64
	exec := groupExec(func(i int) int { return 5 }, &runs)
	jobs := []GroupJob[int]{{Key: "z", Group: "gz"}, {Key: "f", Group: "gf"}}
	for range 20 {
		if _, err := MapGroups(ctx, r, jobs, exec); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the cached boom", err)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("a call failing on a cached failure executed %d groups", n)
	}
	want := Stats{Submitted: 41, CacheHits: 20, Failures: 1, GroupRuns: 1}
	if s := r.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
	// z was cancelled, not cached: a call without the failure computes it.
	out, err := MapGroups(ctx, r, keyedJobs("gz", "z"), exec)
	if err != nil || out[0] != 5 || runs.Load() != 1 {
		t.Fatalf("z after the failed calls = %v, %v (%d runs)", out, err, runs.Load())
	}
}

// TestMapGroupsInlineRetriesCancelledClaim: a cell waiting on a claim
// that is cancelled is not served the context error: it claims the
// cell again and computes it.
func TestMapGroupsInlineRetriesCancelledClaim(t *testing.T) {
	r := New(Config{Workers: 2})
	cctx, cancel := context.WithCancel(context.Background())
	started, dispatched := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := MapGroups(cctx, r, keyedJobs("gx", "x"), func(ctx context.Context, _ string, _ []int) ([]int, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		first <- err
	}()
	<-started
	jobs := []GroupJob[int]{{Key: "x", Group: "gx"}, {Key: "y", Group: "gy"}}
	out, err := MapGroups(context.Background(), r, jobs, func(_ context.Context, g string, idx []int) ([]int, error) {
		if g == "gy" {
			close(dispatched)
			cancel()
			return []int{2}, nil
		}
		return []int{1}, nil
	})
	if err != nil || out[0] != 1 || out[1] != 2 {
		t.Fatalf("out = %v, %v; want the retried x computed", out, err)
	}
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled claim: err = %v", err)
	}
	want := Stats{Submitted: 3, Executed: 2, Failures: 1, GroupRuns: 3}
	if s := r.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

// TestMapGroupsInlineEventOrder: at one worker, a fully cached call
// emits one JobCached per cell, in job order, and nothing else.
func TestMapGroupsInlineEventOrder(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	r := New(Config{Workers: 1, OnEvent: func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}})
	jobs := make([]GroupJob[int], 12)
	for i := range jobs {
		jobs[i] = GroupJob[int]{Key: fmt.Sprintf("k%02d", i), Group: fmt.Sprintf("g%d", i%3)}
	}
	exec := groupExec(func(i int) int { return i }, new(atomic.Uint64))
	if _, err := MapGroups(context.Background(), r, jobs, exec); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	events = nil
	mu.Unlock()
	if _, err := MapGroups(context.Background(), r, jobs, exec); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != len(jobs) {
		t.Fatalf("%d events for %d cached cells: %+v", len(events), len(jobs), events)
	}
	for i, ev := range events {
		if ev.Kind != JobCached || ev.Key != jobs[i].Key {
			t.Fatalf("event %d = %s %q, want cached %q", i, ev.Kind, ev.Key, jobs[i].Key)
		}
	}
}

// TestMapGroupsInlineCancelledContext: a call whose context is already
// cancelled returns the context error, even when every cell is cached,
// and serves nothing.
func TestMapGroupsInlineCancelledContext(t *testing.T) {
	r := New(Config{Workers: 2})
	jobs := keyedJobs("g", "a", "b")
	exec := groupExec(func(i int) int { return i }, new(atomic.Uint64))
	if _, err := MapGroups(context.Background(), r, jobs, exec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for range 50 {
		if out, err := MapGroups(ctx, r, jobs, exec); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call = %v, %v; want context.Canceled", out, err)
		}
	}
	if s := r.Stats(); s.CacheHits != 0 || s.Executed != 2 {
		t.Fatalf("stats = %+v, want the cancelled calls to serve nothing", s)
	}
}
