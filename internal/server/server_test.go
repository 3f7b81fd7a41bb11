package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dynloop/internal/client"
	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/spec"
	"dynloop/internal/store"
	"dynloop/internal/wire"
)

// testCfg and testSweep are the daemon tests' grid: the registered
// sweep at 2 benchmarks × {STR, STR(3)} × {2, 4} TUs, 8 cells.
var (
	testCfg       = expt.Config{Budget: 50_000, Benchmarks: []string{"swim", "compress"}}
	testSweepSpec = expt.SweepSpec{Policies: []spec.Policy{spec.STR(), spec.STRn(3)}, TUs: []int{2, 4}}
	testSweep     = testSweepSpec.GridSpec()
)

// testReq asks a daemon for testSweep under testCfg.
func testReq() wire.GridRequest {
	gs := testSweep
	return wire.GridRequest{Spec: &gs, Benchmarks: testCfg.Benchmarks, Budget: testCfg.Budget}
}

// renderSweep renders a daemon's testSweep values through the
// registered sweep renderer.
func renderSweep(t *testing.T, values []any) string {
	t.Helper()
	res, err := grid.ResultFrom(testCfg, testSweep, values)
	if err != nil {
		t.Fatal(err)
	}
	out, err := grid.RenderResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// newTestDaemon starts a daemon over httptest and returns a client.
func newTestDaemon(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, client.New(hs.URL, hs.Client())
}

// TestRemoteSweepByteIdentical is the acceptance criterion: the remote
// path must render byte-identical output to the local path, at 1 and
// at 8 workers.
func TestRemoteSweepByteIdentical(t *testing.T) {
	ctx := context.Background()
	localCfg := testCfg
	localCfg.Parallel = 1
	localRows, err := expt.Sweep(ctx, localCfg, testSweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := expt.RenderSweep(localRows)

	for _, workers := range []int{1, 8} {
		_, c := newTestDaemon(t, Config{Workers: workers})
		values, err := c.Grid(ctx, testReq())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := renderSweep(t, values); got != want {
			t.Fatalf("workers=%d: remote render differs:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestDaemonSharesCellsAcrossClients: two clients asking overlapping
// grids compute the overlap once.
func TestDaemonSharesCellsAcrossClients(t *testing.T) {
	ctx := context.Background()
	s, c := newTestDaemon(t, Config{Workers: 4})
	if _, err := c.Grid(ctx, testReq()); err != nil {
		t.Fatal(err)
	}
	executed := s.Runner().Stats().Executed
	if _, err := c.Grid(ctx, testReq()); err != nil {
		t.Fatal(err)
	}
	st := s.Runner().Stats()
	if st.Executed != executed {
		t.Fatalf("identical second sweep executed %d new cells", st.Executed-executed)
	}
	if st.CacheHits == 0 {
		t.Fatalf("second sweep produced no cache hits: %+v", st)
	}
}

// TestDaemonStoreTier: a daemon restarted over the same store serves a
// repeat sweep from disk without executing anything.
func TestDaemonStoreTier(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, c1 := newTestDaemon(t, Config{Workers: 4, Store: st1})
	values1, err := c1.Grid(ctx, testReq())
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	s2, c2 := newTestDaemon(t, Config{Workers: 4, Store: st2})
	values2, err := c2.Grid(ctx, testReq())
	if err != nil {
		t.Fatal(err)
	}
	if renderSweep(t, values1) != renderSweep(t, values2) {
		t.Fatal("store-served sweep differs from computed sweep")
	}
	rs := s2.Runner().Stats()
	if rs.Executed != 0 || rs.DiskHits == 0 {
		t.Fatalf("restarted daemon recomputed cells: %+v", rs)
	}

	// The stats endpoint reports the disk tier.
	stats, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runner.DiskHits != rs.DiskHits || stats.Store == nil || stats.Store.Records == 0 {
		t.Fatalf("stats endpoint: %+v", stats)
	}
}

// TestCellQuery: a persisted cell is queryable by its full
// configuration key and decodes to the exact metrics the grid response
// carried.
func TestCellQuery(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, c := newTestDaemon(t, Config{Workers: 2, Store: st})
	values, err := c.Grid(ctx, testReq())
	if err != nil {
		t.Fatal(err)
	}
	keys := st.Keys()
	if len(keys) != len(values) {
		t.Fatalf("store has %d keys for %d cells", len(keys), len(values))
	}
	found := 0
	for _, key := range keys {
		v, err := c.Cell(ctx, key)
		if err != nil {
			t.Fatalf("Cell(%q): %v", key, err)
		}
		m, ok := v.(spec.Metrics)
		if !ok {
			t.Fatalf("Cell(%q) decoded to %T", key, v)
		}
		for _, v := range values {
			if v == any(m) {
				found++
				break
			}
		}
	}
	if found != len(keys) {
		t.Fatalf("only %d of %d cell queries matched a grid cell", found, len(keys))
	}
	if _, err := c.Cell(ctx, "no such key"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("absent key: %v", err)
	}
}

// TestEventsStream: an SSE subscriber sees a grid's progress.
func TestEventsStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, c := newTestDaemon(t, Config{Workers: 2})

	var mu sync.Mutex
	kinds := map[string]int{}
	stream, err := c.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- stream.Recv(func(ev wire.Event) {
			mu.Lock()
			kinds[ev.Kind]++
			mu.Unlock()
		})
	}()
	if _, err := c.Grid(ctx, testReq()); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		done := kinds["done"]
		mu.Unlock()
		if done > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("no done events seen: %v", kinds)
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	if err := <-streamDone; err != nil {
		t.Fatalf("event stream: %v", err)
	}
}

// headerProbe is a ResponseWriter that calls onHeader when the handler
// sends its status line.
type headerProbe struct {
	*httptest.ResponseRecorder
	onHeader func()
}

func (p headerProbe) WriteHeader(code int) {
	p.onHeader()
	p.ResponseRecorder.WriteHeader(code)
}

// TestEventsStreamShortGrid: a one-cell grid sent as soon as Subscribe
// returns reaches the stream whole, on its cold run (start, done) and
// on its warm one (cached). A daemon that subscribed the stream only
// after sending its response headers could lose them, so the test
// first pins that the hub holds the subscriber before the 200 goes out.
func TestEventsStreamShortGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, c := newTestDaemon(t, Config{Workers: 1})

	subsAtHeader := int32(-1)
	probe := headerProbe{httptest.NewRecorder(), func() { subsAtHeader = s.hub.n.Load() }}
	done, stop := context.WithCancel(ctx)
	stop() // the handler returns once it has attached and answered
	s.handleEvents(probe, httptest.NewRequest("GET", "/v1/events", nil).WithContext(done))
	if subsAtHeader != 1 {
		t.Fatalf("the event stream had %d hub subscribers when its 200 went out, want 1", subsAtHeader)
	}
	stream, err := c.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Sized past the three events the test expects, so an unexpected
	// extra event is buffered for the final check instead of blocking.
	events := make(chan wire.Event, 16)
	streamDone := make(chan error, 1)
	go func() { streamDone <- stream.Recv(func(ev wire.Event) { events <- ev }) }()

	req := wire.GridRequest{Spec: &grid.Spec{Kind: "table1", Benchmarks: []string{"swim"}}, Budget: 20_000}
	for _, want := range [][]string{{"start", "done"}, {"cached"}} {
		if _, err := c.Grid(ctx, req); err != nil {
			t.Fatal(err)
		}
		for _, kind := range want {
			select {
			case ev := <-events:
				if ev.Kind != kind {
					t.Fatalf("event %+v, want kind %q", ev, kind)
				}
				if !strings.Contains(ev.Label, "swim") {
					t.Fatalf("event %+v is not the grid's swim cell", ev)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("no %q event for a one-cell grid sent right after Subscribe", kind)
			}
		}
	}
	cancel()
	if err := <-streamDone; err != nil {
		t.Fatalf("event stream: %v", err)
	}
	select {
	case ev := <-events:
		t.Fatalf("unexpected extra event %+v", ev)
	default:
	}
}

// TestGracefulShutdown: cancelling the serve context stops the
// listener, ends event streams, and returns without error.
func TestGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := New(Config{Workers: 2})
	ready := make(chan string, 1)
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(ctx, "127.0.0.1:0", ready, 5*time.Second) }()
	addr := <-ready
	c := client.New("http://"+addr, nil)
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}

	// An open SSE stream must not wedge shutdown.
	streamDone := make(chan error, 1)
	go func() { streamDone <- c.Events(context.Background(), func(wire.Event) {}) }()
	time.Sleep(50 * time.Millisecond)

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ListenAndServe: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	select {
	case <-streamDone:
	case <-time.After(5 * time.Second):
		t.Fatal("event stream did not end on shutdown")
	}
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("daemon still serving after shutdown")
	}
}

// TestRemoteGridByteIdentical: a grid executed remotely — by registered
// name AND as an inline ad-hoc spec — renders byte-identically to the
// local path, at 1 and 8 workers.
func TestRemoteGridByteIdentical(t *testing.T) {
	ctx := context.Background()
	cfg := expt.Config{Budget: 60_000, Benchmarks: []string{"swim", "compress"}, Parallel: 1}

	adhoc := grid.Spec{
		Kind:     "spec",
		Seeds:    []uint64{1, 2},
		TUs:      []int{2, 4},
		Policies: []string{"str"},
	}
	localRes, err := grid.Run(ctx, cfg, adhoc)
	if err != nil {
		t.Fatal(err)
	}
	wantAdhoc, err := grid.RenderResult(localRes)
	if err != nil {
		t.Fatal(err)
	}
	namedEntry, ok := grid.Lookup("table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	namedRes, err := grid.Run(ctx, cfg, namedEntry.Spec)
	if err != nil {
		t.Fatal(err)
	}
	wantNamed, err := grid.RenderResult(namedRes)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		_, c := newTestDaemon(t, Config{Workers: workers})
		req := wire.GridRequest{Spec: &adhoc, Budget: cfg.Budget, Benchmarks: cfg.Benchmarks}
		values, err := c.Grid(ctx, req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res, err := grid.ResultFrom(cfg, adhoc, values)
		if err != nil {
			t.Fatal(err)
		}
		got, err := grid.RenderResult(res)
		if err != nil || got != wantAdhoc {
			t.Fatalf("workers=%d: remote ad-hoc grid differs (%v):\n%s\nwant:\n%s", workers, err, got, wantAdhoc)
		}

		values, err = c.Grid(ctx, wire.GridRequest{Name: "table2", Budget: cfg.Budget, Benchmarks: cfg.Benchmarks})
		if err != nil {
			t.Fatalf("workers=%d named: %v", workers, err)
		}
		res, err = grid.ResultFrom(cfg, namedEntry.Spec, values)
		if err != nil {
			t.Fatal(err)
		}
		got, err = grid.RenderResult(res)
		if err != nil || got != wantNamed {
			t.Fatalf("workers=%d: remote named grid differs (%v):\n%s\nwant:\n%s", workers, err, got, wantNamed)
		}
	}
}

// TestGridsListingRoundTrip: the daemon's listing carries every
// registered spec, and a spec fetched from it resubmits inline to the
// same bytes as the named request — the full discover → fetch →
// execute loop.
func TestGridsListingRoundTrip(t *testing.T) {
	ctx := context.Background()
	_, c := newTestDaemon(t, Config{Workers: 4})
	infos, err := c.Grids(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(grid.Names()) {
		t.Fatalf("listing has %d grids, registry %d", len(infos), len(grid.Names()))
	}
	byName := map[string]wire.GridInfo{}
	for _, gi := range infos {
		byName[gi.Name] = gi
		if gi.Kind == "" || gi.Cells <= 0 {
			t.Fatalf("listing entry %+v incomplete", gi)
		}
	}
	gi, ok := byName["table1"]
	if !ok {
		t.Fatal("table1 missing from listing")
	}
	cfg := expt.Config{Budget: 60_000, Benchmarks: []string{"swim"}}
	named, err := c.Grid(ctx, wire.GridRequest{Name: "table1", Budget: cfg.Budget, Benchmarks: cfg.Benchmarks})
	if err != nil {
		t.Fatal(err)
	}
	fetched := gi.Spec
	inline, err := c.Grid(ctx, wire.GridRequest{Spec: &fetched, Budget: cfg.Budget, Benchmarks: cfg.Benchmarks})
	if err != nil {
		t.Fatal(err)
	}
	resA, err := grid.ResultFrom(cfg, gi.Spec, named)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := grid.ResultFrom(cfg, fetched, inline)
	if err != nil {
		t.Fatal(err)
	}
	a, errA := grid.RenderResult(resA)
	b, errB := grid.RenderResult(resB)
	if errA != nil || errB != nil || a != b || a == "" {
		t.Fatalf("listing round trip differs (%v %v):\n%s\nvs\n%s", errA, errB, a, b)
	}
}

// TestGridValidation: the daemon rejects malformed, oversized and
// unknown grid requests with errors, never panics.
func TestGridValidation(t *testing.T) {
	ctx := context.Background()
	_, c := newTestDaemon(t, Config{Workers: 1, MaxCells: 4})
	bad := []wire.GridRequest{
		{}, // neither name nor spec
		{Name: "nope"},
		{Spec: &grid.Spec{Kind: "bogus"}},
		{Spec: &grid.Spec{TUs: []int{-1}}},
		{Spec: &grid.Spec{Kind: "table1", Policies: []string{"str"}}},
		{Spec: &grid.Spec{}, Benchmarks: []string{"nope"}},
		{Name: "sweep", Budget: 1000}, // 360 cells > MaxCells=4
	}
	for i, req := range bad {
		if _, err := c.Grid(ctx, req); err == nil {
			t.Errorf("case %d accepted: %+v", i, req)
		}
	}
}

// TestSweepValidation: the sweep grid as `dynloop sweep` builds it is
// rejected over /v1/grid for an unknown benchmark, an unknown policy, a
// negative TU count, and a full default grid over MaxCells.
func TestSweepValidation(t *testing.T) {
	ctx := context.Background()
	_, c := newTestDaemon(t, Config{Workers: 1, MaxCells: 4})
	// sweep is a one-cell sweep grid (on one benchmark) with one axis
	// edited, so an edit is the only thing wrong with it.
	sweep := func(edit func(*grid.Spec)) *grid.Spec {
		gs := expt.SweepSpec{Policies: []spec.Policy{spec.STR()}, TUs: []int{4}}.GridSpec()
		edit(&gs)
		return &gs
	}
	one := []string{"swim"}
	if _, err := c.Grid(ctx, wire.GridRequest{Spec: sweep(func(*grid.Spec) {}), Benchmarks: one, Budget: 1000}); err != nil {
		t.Fatalf("unedited one-cell sweep rejected: %v", err)
	}
	fullSweep := expt.SweepSpec{}.GridSpec()
	cases := []wire.GridRequest{
		{Spec: sweep(func(*grid.Spec) {}), Benchmarks: []string{"nope"}, Budget: 1000},
		{Spec: sweep(func(gs *grid.Spec) { gs.Policies = []string{"warp-drive"} }), Benchmarks: one, Budget: 1000},
		{Spec: sweep(func(gs *grid.Spec) { gs.TUs = []int{-1} }), Benchmarks: one, Budget: 1000},
		{Spec: &fullSweep, Budget: 1000}, // full default grid exceeds MaxCells=4
	}
	for i, req := range cases {
		if _, err := c.Grid(ctx, req); err == nil {
			t.Errorf("case %d accepted: %+v", i, req)
		}
	}
}
