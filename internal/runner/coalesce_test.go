package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests below pin the per-group done signal of MapGroups: the cells
// one call claims in a group share one signal, and callers that find
// those cells in flight wait on it. Whether the group executes, hits
// the persistent tier in part or in full, or is cancelled, every waiter
// must wake with the right value or error, and the signal must close
// exactly once (a second close panics).

// callResult is the outcome of one MapGroups call.
type callResult struct {
	out []int
	err error
}

// await returns the outcome on ch, failing the test if none arrives.
func await(t *testing.T, ch <-chan callResult) callResult {
	t.Helper()
	select {
	case res := <-ch:
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("MapGroups call hangs")
		return callResult{}
	}
}

// joinCount numbers the cells joinGroup adds, so each call's own cell
// has a key of its own.
var joinCount atomic.Int64

// joinGroup starts a MapGroups call on r over keys, all in group g,
// plus one cell "own" of a group of its own, whose value is 100. It
// returns once the call has dispatched every cell (the call's own
// group executes only then), so each of keys that another call holds
// in flight is by then a waiter. A cell of keys that the call has to
// compute, after a cancelled claim, gets want[key]; want nil means
// none may be computed here.
func joinGroup(t *testing.T, r *Runner, g string, keys []string, want map[string]int) <-chan callResult {
	own := fmt.Sprintf("own%d", joinCount.Add(1))
	jobs := keyedJobs(g, keys...)
	jobs = append(jobs, GroupJob[int]{Key: own, Group: own})
	dispatched := make(chan struct{})
	done := make(chan callResult, 1)
	go func() {
		out, err := MapGroups(context.Background(), r, jobs, func(_ context.Context, group string, idx []int, out []int) error {
			if group == own {
				close(dispatched)
				out[idx[0]] = 100
				return nil
			}
			for _, i := range idx {
				v, ok := want[jobs[i].Key]
				if !ok {
					return fmt.Errorf("cell %s computed by a waiting call", jobs[i].Key)
				}
				out[i] = v
			}
			return nil
		})
		done <- callResult{out, err}
	}()
	select {
	case <-dispatched:
	case <-time.After(10 * time.Second):
		t.Fatal("joining call never dispatched")
	}
	return done
}

// checkOut fails unless res is a success with out.
func checkOut(t *testing.T, what string, res callResult, out ...int) {
	t.Helper()
	if res.err != nil || !reflect.DeepEqual(res.out, out) {
		t.Errorf("%s: out = %v, err = %v; want %v", what, res.out, res.err, out)
	}
}

// TestMapGroupsCoalescePartialDiskHit: a group whose cell a hits the
// persistent tier while b executes; callers waiting on a and b wake
// when the group resolves, with a's tier value and b's result.
func TestMapGroupsCoalescePartialDiskHit(t *testing.T) {
	c := newFakeCache()
	c.m["a"] = 10
	r := New(Config{Workers: 4, Cache: c})
	started, gate := make(chan struct{}), make(chan struct{})
	var runs atomic.Int64
	first := make(chan callResult, 1)
	go func() {
		out, err := MapGroups(context.Background(), r, keyedJobs("g", "a", "b"), func(_ context.Context, _ string, idx []int, out []int) error {
			runs.Add(1)
			close(started)
			<-gate
			for _, i := range idx {
				out[i] = 2
			}
			return nil
		})
		first <- callResult{out, err}
	}()
	<-started
	w1 := joinGroup(t, r, "g", []string{"a", "b"}, nil)
	w2 := joinGroup(t, r, "g", []string{"b", "a"}, nil)
	close(gate)
	checkOut(t, "claiming call", await(t, first), 10, 2)
	checkOut(t, "first waiter", await(t, w1), 10, 2, 100)
	checkOut(t, "second waiter", await(t, w2), 2, 10, 100)
	if n := runs.Load(); n != 1 {
		t.Errorf("the group executed %d times, want 1", n)
	}
	want := Stats{Submitted: 8, Executed: 3, Coalesced: 4, GroupRuns: 3, DiskHits: 1, DiskPuts: 3}
	if s := r.Stats(); s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
}

// gateCache is a fakeCache whose first Get of key blocks, after closing
// entered, until gate closes.
type gateCache struct {
	*fakeCache
	key           string
	once          sync.Once
	entered, gate chan struct{}
}

func (c *gateCache) Get(key string) (any, bool, error) {
	if key == c.key {
		c.once.Do(func() {
			close(c.entered)
			<-c.gate
		})
	}
	return c.fakeCache.Get(key)
}

// TestMapGroupsCoalesceAllDiskHits: a group whose every claimed cell
// hits the persistent tier never executes; its done signal closes once
// the last hit lands, and callers waiting on its cells wake with the
// tier's values.
func TestMapGroupsCoalesceAllDiskHits(t *testing.T) {
	c := &gateCache{fakeCache: newFakeCache(), key: "b", entered: make(chan struct{}), gate: make(chan struct{})}
	c.m["a"], c.m["b"] = 10, 20
	r := New(Config{Workers: 2, Cache: c})
	first := make(chan callResult, 1)
	go func() {
		out, err := MapGroups(context.Background(), r, keyedJobs("g", "a", "b"), func(context.Context, string, []int, []int) error {
			return errors.New("a group of disk hits executed")
		})
		first <- callResult{out, err}
	}()
	<-c.entered // a has hit, b is being read
	w1 := joinGroup(t, r, "g", []string{"b", "a"}, nil)
	w2 := joinGroup(t, r, "g", []string{"a"}, nil)
	close(c.gate)
	checkOut(t, "claiming call", await(t, first), 10, 20)
	checkOut(t, "first waiter", await(t, w1), 20, 10, 100)
	checkOut(t, "second waiter", await(t, w2), 10, 100)
	want := Stats{Submitted: 7, Executed: 2, Coalesced: 3, GroupRuns: 2, DiskHits: 2, DiskPuts: 2}
	if s := r.Stats(); s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
}

// TestMapGroupsCoalesceCancelledGroup: a group cancelled mid-execution
// resolves its claims with the context error and wakes their waiters.
// Its disk hit a stays a result, served to a's waiters; b's claim is
// dropped, so b's waiters retry, one computing b and the other
// coalescing onto that, and the cancelled caller gets its context
// error.
func TestMapGroupsCoalesceCancelledGroup(t *testing.T) {
	c := newFakeCache()
	c.m["a"] = 10
	r := New(Config{Workers: 4, Cache: c})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	first := make(chan callResult, 1)
	go func() {
		out, err := MapGroups(ctx, r, keyedJobs("g", "a", "b"), func(ctx context.Context, _ string, _ []int, _ []int) error {
			close(started)
			<-ctx.Done()
			return ctx.Err()
		})
		first <- callResult{out, err}
	}()
	<-started
	want := map[string]int{"b": 5}
	w1 := joinGroup(t, r, "g", []string{"a", "b"}, want)
	w2 := joinGroup(t, r, "g", []string{"b"}, want)
	cancel()
	if res := await(t, first); !errors.Is(res.err, context.Canceled) {
		t.Errorf("cancelled call: out = %v, err = %v; want context.Canceled", res.out, res.err)
	}
	checkOut(t, "first waiter", await(t, w1), 10, 5, 100)
	checkOut(t, "second waiter", await(t, w2), 5, 100)
	// b is a result now: a later call is served from memory.
	out, err := MapGroups(context.Background(), r, keyedJobs("g", "a", "b"), func(context.Context, string, []int, []int) error {
		return errors.New("resolved cells executed again")
	})
	if err != nil || out[0] != 10 || out[1] != 5 {
		t.Errorf("later call: out = %v, err = %v; want [10 5]", out, err)
	}
}
