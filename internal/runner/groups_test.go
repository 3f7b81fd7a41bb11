package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// groupExec returns an exec that computes cell i as f(i) and counts
// invocations (one per fused group).
func groupExec(f func(i int) int, runs *atomic.Uint64) func(ctx context.Context, group string, idx []int, out []int) error {
	return func(ctx context.Context, group string, idx []int, out []int) error {
		runs.Add(1)
		for _, i := range idx {
			out[i] = f(i)
		}
		return nil
	}
}

// TestMapGroupsFusesByGroup: cells sharing a Group value execute in one
// exec call, and results come back in job order.
func TestMapGroupsFusesByGroup(t *testing.T) {
	r := New(Config{Workers: 4})
	jobs := make([]GroupJob[int], 12)
	for i := range jobs {
		jobs[i] = GroupJob[int]{Key: fmt.Sprintf("k%d", i), Group: fmt.Sprintf("g%d", i%3)}
	}
	var runs atomic.Uint64
	out, err := MapGroups(context.Background(), r, jobs, groupExec(func(i int) int { return i * i }, &runs))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if runs.Load() != 3 {
		t.Fatalf("exec ran %d times, want 3 (one per group)", runs.Load())
	}
	s := r.Stats()
	if s.Executed != 12 || s.GroupRuns != 3 || s.Submitted != 12 {
		t.Fatalf("stats = %+v, want 12 executed in 3 group runs", s)
	}
}

// TestMapGroupsCacheInterop: cells cached by Map are served to MapGroups
// without executing, and cells a group executed satisfy a later Map.
func TestMapGroupsCacheInterop(t *testing.T) {
	r := New(Config{Workers: 2})
	ctx := context.Background()
	if _, err := Map(ctx, r, []Job[int]{{Key: "a", Run: func(context.Context) (int, error) { return 100, nil }}}); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Uint64
	jobs := []GroupJob[int]{
		{Key: "a", Group: "g"},
		{Key: "b", Group: "g"},
		{Key: "c", Group: "g"},
	}
	out, err := MapGroups(ctx, r, jobs, func(ctx context.Context, group string, idx []int, out []int) error {
		runs.Add(1)
		if len(idx) != 2 || idx[0] != 1 || idx[1] != 2 {
			return fmt.Errorf("group got cells %v, want [1 2] (cell 0 is cached)", idx)
		}
		out[1], out[2] = 201, 202
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 100 || out[1] != 201 || out[2] != 202 {
		t.Fatalf("out = %v", out)
	}
	if runs.Load() != 1 {
		t.Fatalf("exec ran %d times, want 1", runs.Load())
	}
	if hits := r.Stats().CacheHits; hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	// The group-computed cell now serves a plain Map without running.
	vs, err := Map(ctx, r, []Job[int]{{Key: "b", Run: func(context.Context) (int, error) {
		return 0, errors.New("must not run")
	}}})
	if err != nil || vs[0] != 201 {
		t.Fatalf("cached b = %v, %v", vs, err)
	}
}

// TestMapGroupsDuplicateKeys: a duplicate key within one call coalesces
// onto the claimed cell instead of executing twice.
func TestMapGroupsDuplicateKeys(t *testing.T) {
	r := New(Config{Workers: 4})
	jobs := []GroupJob[int]{
		{Key: "x", Group: "g1"},
		{Key: "x", Group: "g2"},
	}
	var runs atomic.Uint64
	out, err := MapGroups(context.Background(), r, jobs, groupExec(func(i int) int { return 7 }, &runs))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 7 || out[1] != 7 {
		t.Fatalf("out = %v", out)
	}
	if runs.Load() != 1 {
		t.Fatalf("exec ran %d times, want 1", runs.Load())
	}
	s := r.Stats()
	if s.CacheHits+s.Coalesced != 1 {
		t.Fatalf("stats = %+v, want the duplicate served from cache or coalesced", s)
	}
}

// TestMapGroupsUncachedCells: empty keys always execute and are never
// stored.
func TestMapGroupsUncachedCells(t *testing.T) {
	r := New(Config{})
	jobs := []GroupJob[int]{{Group: "g"}, {Group: "g"}}
	var runs atomic.Uint64
	exec := groupExec(func(i int) int { return i + 1 }, &runs)
	for round := 1; round <= 2; round++ {
		out, err := MapGroups(context.Background(), r, jobs, exec)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != 1 || out[1] != 2 {
			t.Fatalf("round %d: out = %v", round, out)
		}
		if runs.Load() != uint64(round) {
			t.Fatalf("round %d: exec ran %d times", round, runs.Load())
		}
	}
}

// TestMapGroupsFailurePropagates: a failing group fails all of its cells
// with the group's error, and the failure is cached per cell.
func TestMapGroupsFailurePropagates(t *testing.T) {
	r := New(Config{Workers: 2})
	boom := errors.New("boom")
	jobs := []GroupJob[int]{
		{Key: "f1", Group: "bad"},
		{Key: "f2", Group: "bad"},
	}
	_, err := MapGroups(context.Background(), r, jobs, func(ctx context.Context, group string, idx []int, out []int) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if f := r.Stats().Failures; f != 1 {
		t.Fatalf("failures = %d, want 1 (one failed group execution)", f)
	}
	// The cached failure replays without re-executing.
	_, err = Map(context.Background(), r, []Job[int]{{Key: "f1", Run: func(context.Context) (int, error) {
		t.Fatal("failed cell re-executed")
		return 0, nil
	}}})
	if !errors.Is(err, boom) {
		t.Fatalf("replayed err = %v, want boom", err)
	}
}

// TestMapGroupsCancellation: a cancelled context aborts the call with
// the context error and leaves no poisoned cache entries behind.
func TestMapGroupsCancellation(t *testing.T) {
	r := New(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []GroupJob[int]{{Key: "c1", Group: "g"}}
	if _, err := MapGroups(ctx, r, jobs, groupExec(func(i int) int { return 1 }, new(atomic.Uint64))); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A later uncancelled call recomputes the cell for real.
	out, err := MapGroups(context.Background(), r, jobs, groupExec(func(i int) int { return 42 }, new(atomic.Uint64)))
	if err != nil || out[0] != 42 {
		t.Fatalf("retry = %v, %v", out, err)
	}
}

// TestMapGroupsDeterministicAcrossWorkers: the fused schedule returns
// identical results at any worker count.
func TestMapGroupsDeterministicAcrossWorkers(t *testing.T) {
	mk := func(workers int) []int {
		r := New(Config{Workers: workers})
		jobs := make([]GroupJob[int], 40)
		for i := range jobs {
			jobs[i] = GroupJob[int]{Key: fmt.Sprintf("d%d", i), Group: fmt.Sprintf("g%d", i%7)}
		}
		out, err := MapGroups(context.Background(), r, jobs, groupExec(func(i int) int { return i * 3 }, new(atomic.Uint64)))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := mk(1), mk(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
