package server

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"dynloop/internal/runner"
	"dynloop/internal/store"
)

// metricDelta reads one series from two scrapes and returns its change.
func metricDelta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}

// TestMetricsReconcileWithRunnerStats: runners and stores count
// through children of their packages' series, so a scrape moves by
// exactly what the instances' own Stats moved. A case runs one grid per
// daemon, the daemons one after another; with a store, the first daemon
// computes the grid into it and the second, over the reopened store,
// serves it from disk.
func TestMetricsReconcileWithRunnerStats(t *testing.T) {
	for _, tc := range []struct {
		name    string
		daemons int
		store   bool
	}{
		{"memory", 1, false},
		{"store", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			var before, after map[string]float64
			var rs runner.Stats
			var ss store.Stats
			for i := 0; i < tc.daemons; i++ {
				cfg := Config{Workers: 4}
				if tc.store {
					st, err := store.Open(dir, store.Options{})
					if err != nil {
						t.Fatal(err)
					}
					cfg.Store = st
				}
				s, c := newTestDaemon(t, cfg)
				if i == 0 {
					var err error
					if before, err = c.Metrics(ctx); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := c.Grid(ctx, testReq()); err != nil {
					t.Fatal(err)
				}
				// Each daemon's runner and store are fresh, so their
				// Stats are this daemon's share of the deltas.
				r := s.Runner().Stats()
				rs.Submitted += r.Submitted
				rs.Executed += r.Executed
				rs.CacheHits += r.CacheHits
				rs.GroupRuns += r.GroupRuns
				rs.DiskHits += r.DiskHits
				rs.DiskPuts += r.DiskPuts
				if cfg.Store != nil {
					st := cfg.Store.Stats()
					ss.Puts += st.Puts
					ss.Gets += st.Gets
					ss.Hits += st.Hits
					if err := cfg.Store.Close(); err != nil {
						t.Fatal(err)
					}
				}
				var err error
				if after, err = c.Metrics(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if tc.store && (rs.DiskHits == 0 || rs.DiskPuts == 0 || ss.Hits == 0) {
				t.Fatalf("store case missed the disk tier: runner %+v, store %+v", rs, ss)
			}

			checks := []struct {
				series string
				want   uint64
			}{
				{"dynloop_runner_jobs_submitted_total", rs.Submitted},
				{"dynloop_runner_jobs_executed_total", rs.Executed},
				{"dynloop_runner_cache_hits_total", rs.CacheHits},
				{"dynloop_runner_group_runs_total", rs.GroupRuns},
				{"dynloop_runner_disk_hits_total", rs.DiskHits},
				{"dynloop_runner_disk_puts_total", rs.DiskPuts},
				{"dynloop_store_puts_total", ss.Puts},
				{"dynloop_store_gets_total", ss.Gets},
				{"dynloop_store_hits_total", ss.Hits},
				{`dynloop_http_requests_total{endpoint="/v1/grid"}`, uint64(tc.daemons)},
				{`dynloop_http_request_seconds_count{endpoint="/v1/grid"}`, uint64(tc.daemons)},
			}
			for _, ck := range checks {
				if got := metricDelta(before, after, ck.series); got != float64(ck.want) {
					t.Errorf("%s moved by %v, instance stats moved by %d", ck.series, got, ck.want)
				}
			}
			if d := metricDelta(before, after, "dynloop_interp_instructions_total"); d <= 0 {
				t.Errorf("interp instruction counter did not move (delta %v)", d)
			}
		})
	}
}

// TestStatsEndpointExtended: /v1/stats carries the plane-negotiation
// and HTTP-layer counters and they agree with a /metrics scrape.
func TestStatsEndpointExtended(t *testing.T) {
	ctx := context.Background()
	_, c := newTestDaemon(t, Config{Workers: 2})
	if _, err := c.Grid(ctx, testReq()); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.Requests == 0 {
		t.Fatalf("stats report zero HTTP requests after a grid: %+v", st.Server)
	}
	if st.Planes.InterpCtl+st.Planes.InterpTap+st.Planes.InterpFull == 0 {
		t.Fatalf("stats report zero interpreter runs after a grid: %+v", st.Planes)
	}
	vals, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Process-wide series can only be >= this instance's view (other tests in
	// the process may run concurrently), never behind it.
	ctl, ok := vals[`dynloop_interp_runs_total{plane="ctl"}`]
	tap, tapOK := vals[`dynloop_interp_runs_total{plane="tap"}`]
	full := vals[`dynloop_interp_runs_total{plane="full"}`]
	if !ok || !tapOK {
		t.Fatalf("scrape lacks the ctl or tap interpreter-run series")
	}
	if ctl < float64(st.Planes.InterpCtl) || tap < float64(st.Planes.InterpTap) || full < float64(st.Planes.InterpFull) {
		t.Errorf("scrape (ctl=%v tap=%v full=%v) behind stats (%+v)", ctl, tap, full, st.Planes)
	}
}

// TestShedCounter: an oversized grid is rejected with 422 and counted
// as shed load.
func TestShedCounter(t *testing.T) {
	ctx := context.Background()
	_, c := newTestDaemon(t, Config{Workers: 1, MaxCells: 2})
	before, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Grid(ctx, testReq()); err == nil {
		t.Fatal("oversized grid unexpectedly succeeded")
	}
	after, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d := metricDelta(before, after, "dynloop_http_shed_total"); d != 1 {
		t.Errorf("shed counter moved by %v, want 1", d)
	}
}

// syncBuffer is a mutex-guarded log sink: the middleware logs after
// the response body is complete, so the record may land just after the
// client call returns.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestLogging: a configured logger receives one structured
// record per request with the endpoint and cell count attached.
func TestRequestLogging(t *testing.T) {
	ctx := context.Background()
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, c := newTestDaemon(t, Config{Workers: 2, Logger: logger})
	if _, err := c.Grid(ctx, testReq()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		out := buf.String()
		if strings.Contains(out, `"endpoint":"/v1/grid"`) {
			if !strings.Contains(out, `"cells":"8"`) {
				t.Fatalf("grid log record missing cell count in:\n%s", out)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no grid request log record in:\n%s", out)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
