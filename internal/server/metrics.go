package server

import (
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"dynloop/internal/obs"
	"dynloop/internal/runner"
)

// HTTP-layer metrics. Every route gets its own request counter and
// latency histogram series, registered once at package init so the
// per-request path is label-lookup-free: one map read at wrap time
// (not per request — instrument closes over the series), then pure
// atomic increments.
var (
	mHTTPInFlight = obs.NewGauge("dynloop_http_in_flight",
		"Requests currently being served.")
	mHTTPShed = obs.NewCounter("dynloop_http_shed_total",
		"Requests shed: oversized grids rejected, queue waits timed out (both 422 + Retry-After) and clients that gave up while queued for an inflight slot.")
)

// routes is the fixed endpoint set; per-endpoint series are registered
// for exactly these, keeping label cardinality bounded by construction.
var routes = []string{
	"/v1/grid", "/v1/grids", "/v1/cell",
	"/v1/events", "/v1/stats", "/healthz", "/metrics",
}

type endpointSeries struct {
	reqs *obs.Counter
	lat  *obs.Histogram
}

var endpointMetrics = func() map[string]endpointSeries {
	m := make(map[string]endpointSeries, len(routes))
	for _, r := range routes {
		m[r] = endpointSeries{
			reqs: obs.NewCounter("dynloop_http_requests_total",
				"HTTP requests served, by endpoint.", "endpoint", r),
			lat: obs.NewHistogram("dynloop_http_request_seconds",
				"HTTP request latency in seconds, by endpoint.",
				obs.DefLatencyBuckets, "endpoint", r),
		}
	}
	return m
}()

// HTTPTotals sums the per-endpoint request counters and returns them
// with the shed count and the in-flight gauge, for /v1/stats.
func HTTPTotals() (requests, shed uint64, inFlight int64) {
	for _, es := range endpointMetrics {
		requests += es.reqs.Value()
	}
	return requests, mHTTPShed.Value(), int64(mHTTPInFlight.Value())
}

// reqSeq numbers requests for log correlation.
var reqSeq atomic.Uint64

// statusWriter records the response status for metrics and logs. It
// must implement http.Flusher: the SSE events handler streams through
// it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument wraps a handler with the route's metrics series and, when
// the server has a logger, a structured request log line. The logged
// tier counts are deltas of the shared runner's counters around the
// request — exact when requests run one at a time (the smoke tests'
// shape), advisory under concurrency.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	es := endpointMetrics[route]
	return func(w http.ResponseWriter, r *http.Request) {
		mHTTPInFlight.Add(1)
		defer mHTTPInFlight.Add(-1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		var before runner.Stats
		logged := s.cfg.Logger != nil
		var id uint64
		if logged {
			id = reqSeq.Add(1)
			before = s.runner.Stats()
		}
		h(sw, r)
		dur := time.Since(start)
		es.reqs.Inc()
		es.lat.Observe(dur.Seconds())
		if sw.status == http.StatusUnprocessableEntity {
			mHTTPShed.Inc()
		}
		if logged {
			after := s.runner.Stats()
			s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.Uint64("req", id),
				slog.String("endpoint", route),
				slog.Int("status", sw.status),
				slog.Duration("dur", dur),
				slog.String("cells", sw.Header().Get("X-Dynloop-Cells")),
				slog.Uint64("executed", after.Executed-before.Executed),
				slog.Uint64("cache_hits", after.CacheHits-before.CacheHits),
				slog.Uint64("disk_hits", after.DiskHits-before.DiskHits),
				slog.Uint64("replay_runs", after.ReplayRuns-before.ReplayRuns),
			)
		}
	}
}
