package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_counter_total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.NewGauge("t_gauge", "help")
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge = %v, want 1.0", got)
	}
}

// TestCounterChild: a child's Add moves the child and its parent by
// exactly n each, and sibling children count independently.
func TestCounterChild(t *testing.T) {
	r := NewRegistry()
	parent := r.NewCounter("t_parent_total", "help")
	a, b := parent.Child(), parent.Child()
	a.Add(5)
	a.Inc()
	b.Add(3)
	if a.Value() != 6 || b.Value() != 3 || parent.Value() != 9 {
		t.Fatalf("a=%d b=%d parent=%d, want 6, 3 and 9", a.Value(), b.Value(), parent.Value())
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "t_parent_total 9\n") || strings.Count(out, "\nt_parent_total ") != 1 {
		t.Fatalf("children must not register series of their own:\n%s", out)
	}
}

// TestHistogramBucketEdges pins the le bucket semantics: a value equal
// to an upper bound lands in that bucket, zero lands in the first
// bucket, values beyond the last bound land in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_hist", "help", []float64{0, 1, 10})
	h.Observe(0)           // le="0" (v == bound stays)
	h.Observe(-5)          // le="0"
	h.Observe(1)           // le="1" exactly on the boundary
	h.Observe(1.0000001)   // le="10"
	h.Observe(10)          // le="10" max finite bound
	h.Observe(11)          // +Inf overflow
	h.Observe(math.Inf(1)) // +Inf
	count, sum, counts := h.Snapshot()
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
	if !math.IsInf(sum, 1) {
		t.Fatalf("sum = %v, want +Inf", sum)
	}
	want := []uint64{2, 1, 2, 2}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
}

func TestHistogramExpositionCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_lat_seconds", "latency", []float64{0.1, 1}, "endpoint", "/x")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`# TYPE t_lat_seconds histogram`,
		`t_lat_seconds_bucket{endpoint="/x",le="0.1"} 1`,
		`t_lat_seconds_bucket{endpoint="/x",le="1"} 2`,
		`t_lat_seconds_bucket{endpoint="/x",le="+Inf"} 3`,
		`t_lat_seconds_count{endpoint="/x"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Round trip through the parser: the _bucket series stay cumulative.
	vals, err := ParseText([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		`t_lat_seconds_bucket{endpoint="/x",le="0.1"}`:  1,
		`t_lat_seconds_bucket{endpoint="/x",le="1"}`:    2,
		`t_lat_seconds_bucket{endpoint="/x",le="+Inf"}`: 3,
		`t_lat_seconds_count{endpoint="/x"}`:            3,
	} {
		if got, ok := vals[series]; !ok || got != want {
			t.Errorf("parsed %s = %v (present %v), want %v", series, got, ok, want)
		}
	}
}

// TestConcurrentUse exercises parallel Inc/Observe against concurrent
// scrapes under -race, and checks nothing is lost.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_conc_total", "help")
	g := r.NewGauge("t_conc_gauge", "help")
	h := r.NewHistogram("t_conc_seconds", "help", DefLatencyBuckets)
	const workers, perWorker = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	// Scrape while the writers hammer.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			var sb strings.Builder
			if _, err := r.WriteTo(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	count, _, counts := h.Snapshot()
	if count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", count, workers*perWorker)
	}
	var sum uint64
	for _, n := range counts {
		sum += n
	}
	if sum != count {
		t.Fatalf("bucket sum %d != count %d", sum, count)
	}
}

// TestHotPathZeroAllocs pins the instrumentation contract: observing
// a metric never allocates, so hot loops can be instrumented without
// breaking their own AllocsPerRun=0 pins.
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_alloc_total", "help")
	g := r.NewGauge("t_alloc_gauge", "help")
	h := r.NewHistogram("t_alloc_seconds", "help", DefLatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Fatalf("Counter hot path allocates %v/op, want 0", n)
	}
	child := c.Child()
	if n := testing.AllocsPerRun(1000, func() { child.Inc(); child.Add(3) }); n != 0 {
		t.Fatalf("child Counter hot path allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1); g.Add(0.5) }); n != 0 {
		t.Fatalf("Gauge hot path allocates %v/op, want 0", n)
	}
	v := 0.0
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v += 0.001 }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op, want 0", n)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("t_handler_total", "help").Add(7)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "t_handler_total 7") {
		t.Fatalf("body: %s", rec.Body.String())
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("t_dup_total", "help", "k", "v")
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate series", func() { r.NewCounter("t_dup_total", "help", "k", "v") })
	mustPanic("type conflict", func() { r.NewGauge("t_dup_total", "help") })
	mustPanic("odd labels", func() { r.NewCounter("t_odd_total", "help", "k") })
	mustPanic("unsorted bounds", func() { r.NewHistogram("t_bounds", "help", []float64{2, 1}) })
}
