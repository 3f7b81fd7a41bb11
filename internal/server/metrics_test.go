package server

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// metricDelta reads one series from two scrapes and returns its change.
func metricDelta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}

// TestMetricsReconcileWithRunnerStats: the obs mirrors are process-
// global while runner stats are per-instance, so the contract is
// delta equality — a grid must move the scraped runner counters by
// exactly what the runner's own stats moved.
func TestMetricsReconcileWithRunnerStats(t *testing.T) {
	ctx := context.Background()
	s, c := newTestDaemon(t, Config{Workers: 4})

	before, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rsBefore := s.Runner().Stats()

	if _, err := c.Grid(ctx, testReq()); err != nil {
		t.Fatal(err)
	}

	after, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rsAfter := s.Runner().Stats()

	checks := []struct {
		series string
		want   uint64
	}{
		{"dynloop_runner_jobs_submitted_total", rsAfter.Submitted - rsBefore.Submitted},
		{"dynloop_runner_jobs_executed_total", rsAfter.Executed - rsBefore.Executed},
		{"dynloop_runner_cache_hits_total", rsAfter.CacheHits - rsBefore.CacheHits},
		{"dynloop_runner_group_runs_total", rsAfter.GroupRuns - rsBefore.GroupRuns},
	}
	for _, ck := range checks {
		if got := metricDelta(before, after, ck.series); got != float64(ck.want) {
			t.Errorf("%s moved by %v, runner stats moved by %d", ck.series, got, ck.want)
		}
	}
	if d := metricDelta(before, after, `dynloop_http_requests_total{endpoint="/v1/grid"}`); d != 1 {
		t.Errorf("grid request counter moved by %v, want 1", d)
	}
	if d := metricDelta(before, after, `dynloop_http_request_seconds_count{endpoint="/v1/grid"}`); d != 1 {
		t.Errorf("grid latency histogram count moved by %v, want 1", d)
	}
	if d := metricDelta(before, after, "dynloop_interp_instructions_total"); d <= 0 {
		t.Errorf("interp instruction counter did not move (delta %v)", d)
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
	// Global mirrors can only be >= this instance's view (other tests in
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
