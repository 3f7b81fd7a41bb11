// Package obs is the dependency-free observability core: atomic
// counters, gauges and fixed-bucket histograms collected in a Registry
// that exposes itself in the Prometheus text format. Every hot-path
// operation — Counter.Inc/Add, Gauge.Set/Add, Histogram.Observe — is a
// handful of atomic instructions with zero allocations, so the
// interpreter retire loop, the runner's job dispatch and the store's
// Put/Get can be instrumented without moving the ns/instr needle or
// breaking an AllocsPerRun=0 pin. Allocation is confined to metric
// registration (once, at package init) and to scraping (WriteTo), which
// runs on the cold /metrics path.
//
// Metric naming follows the Prometheus conventions the rest of the
// fleet tooling expects: `dynloop_` prefix, `_total` suffix on
// counters, base units (seconds, bytes) on histograms, and one
// `# HELP`/`# TYPE` pair per family with any number of labelled series
// under it. Labels are fixed at registration — there is no dynamic
// label materialization, which is what keeps observation allocation-
// free. See DESIGN.md ("Observability") for the metric catalogue.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is not
// registered; create one with NewCounter (or Registry.NewCounter).
type Counter struct {
	v      atomic.Uint64
	parent *Counter
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to c and to every counter it is a child of.
func (c *Counter) Add(n uint64) {
	for ; c != nil; c = c.parent {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Child returns an unregistered counter that counts one instance's
// share of c: every Inc or Add on the child also adds to c. A
// component gives each instance children of its package's series, so
// one increment books an event for both the instance's Stats and the
// process-wide scrape, and the two cannot disagree.
func (c *Counter) Child() *Counter { return &Counter{parent: c} }

// Gauge is a metric that can go up and down, stored as a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (negative deltas decrease the gauge).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution with cumulative-at-scrape
// Prometheus semantics: an observation lands in the first bucket whose
// upper bound is >= the value (le semantics), overflow lands in the
// implicit +Inf bucket. Observe is wait-free on the bucket counters and
// lock-free on the float sum.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    Gauge // CAS-added float sum
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short (<= ~20) and the common case
	// (latency near the median) exits early; a branchless binary search
	// measured no better at these sizes.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot returns the observation count, value sum, and per-bucket
// (non-cumulative) counts; the final element of counts is the +Inf
// overflow bucket. The snapshot is not atomic across buckets — counts
// observed during concurrent Observe calls may be mid-update — which is
// the standard scrape contract.
func (h *Histogram) Snapshot() (count uint64, sum float64, counts []uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.count.Load(), h.sum.Value(), counts
}

// Bounds returns the histogram's upper bounds (without the implicit
// +Inf).
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// DefLatencyBuckets covers request latencies from 50µs to 10s, the
// span between a warm in-memory cell hit and a cold many-benchmark
// grid on a loaded daemon.
var DefLatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefSizeBuckets covers payload sizes from 256 B to 64 MiB.
var DefSizeBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20,
}

// series is one labelled instance under a family; exactly one of
// c/g/h is non-nil, matching the family type.
type series struct {
	labels string // rendered `k="v",k2="v2"` form, "" for none
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one metric name with its help text, type and series.
type family struct {
	name, help, typ string
	series          []series
}

// Registry holds metric families and renders them in the Prometheus
// text format. Create one with NewRegistry, or use the package-level
// Default. Registration is synchronized; registered metrics are
// lock-free to update.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Default is the process-wide registry every package-level metric
// registers in; GET /metrics serves it.
var Default = NewRegistry()

// renderLabels turns alternating key, value pairs into the canonical
// `k="v"` label body. Values are escaped per the exposition format.
func renderLabels(labelPairs []string) string {
	if len(labelPairs) == 0 {
		return ""
	}
	if len(labelPairs)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	var b strings.Builder
	for i := 0; i < len(labelPairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labelPairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labelPairs[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register adds one series, creating or extending its family. It
// panics on a type conflict or duplicate (name, labels) — both are
// programming errors worth failing loudly at init.
func (r *Registry) register(name, help, typ, labels string, s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, typ, f.typ))
	}
	for _, prev := range f.series {
		if prev.labels == labels {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, labels))
		}
	}
	s.labels = labels
	f.series = append(f.series, s)
}

// NewCounter registers and returns a counter. labelPairs are
// alternating key, value strings fixed for the series' lifetime.
func (r *Registry) NewCounter(name, help string, labelPairs ...string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", renderLabels(labelPairs), series{c: c})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string, labelPairs ...string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", renderLabels(labelPairs), series{g: g})
	return g
}

// NewHistogram registers and returns a histogram over the given
// ascending upper bounds (the +Inf bucket is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	r.register(name, help, "histogram", renderLabels(labelPairs), series{h: h})
	return h
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string, labelPairs ...string) *Counter {
	return Default.NewCounter(name, help, labelPairs...)
}

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string, labelPairs ...string) *Gauge {
	return Default.NewGauge(name, help, labelPairs...)
}

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	return Default.NewHistogram(name, help, bounds, labelPairs...)
}

// formatFloat renders a value the way the exposition format expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders the registry in the Prometheus text exposition
// format (version 0.0.4), families in registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	// Snapshot the family list under the lock; the metric values
	// themselves are atomics and read without it.
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.c != nil:
				writeSeries(&b, f.name, s.labels, strconv.FormatUint(s.c.Value(), 10))
			case s.g != nil:
				writeSeries(&b, f.name, s.labels, formatFloat(s.g.Value()))
			case s.h != nil:
				count, sum, counts := s.h.Snapshot()
				cum := uint64(0)
				for i, bound := range s.h.bounds {
					cum += counts[i]
					writeSeries(&b, f.name+"_bucket", joinLabels(s.labels, `le="`+formatFloat(bound)+`"`),
						strconv.FormatUint(cum, 10))
				}
				cum += counts[len(counts)-1]
				writeSeries(&b, f.name+"_bucket", joinLabels(s.labels, `le="+Inf"`),
					strconv.FormatUint(cum, 10))
				writeSeries(&b, f.name+"_sum", s.labels, formatFloat(sum))
				writeSeries(&b, f.name+"_count", s.labels, strconv.FormatUint(count, 10))
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func writeSeries(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// Handler serves the registry as a /metrics scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}

// Handler serves the Default registry.
func Handler() http.Handler { return Default.Handler() }

// ParseText parses a Prometheus text exposition into a map from full
// series name (including the rendered label body, exactly as emitted)
// to value. Comment and blank lines are skipped. It is the inverse of
// WriteTo for the subset of the format WriteTo produces, and exists so
// clients and tests can read a scrape without a metrics client
// dependency.
func ParseText(data []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("obs: exposition line %d: no value separator: %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %v", ln+1, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}
