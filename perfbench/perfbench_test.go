package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		pct     float64
		value   float64
		ok      bool
		comment string
	}{
		{n: 10, ok: false, comment: "no percentile has ten samples beyond it"},
		{n: 11, pct: 100 * 1.0 / 11, value: 0, ok: true, comment: "only the minimum qualifies"},
		{n: 100, pct: 90, value: 89, ok: true, comment: "p90: samples 90..99 lie beyond"},
		{n: 999, pct: 100 * 989.0 / 999, value: 988, ok: true, comment: "just short of p99"},
		{n: 1000, pct: 99, value: 989, ok: true, comment: "p99 with exactly ten beyond"},
		{n: 5000, pct: 99, value: 4949, ok: true, comment: "p99 is the cap"},
	} {
		pct, v, ok := tail(ramp(tc.n))
		if ok != tc.ok || v != tc.value || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d (%s): got p%v=%v ok=%v, want p%v=%v ok=%v", tc.n, tc.comment, pct, v, ok, tc.pct, tc.value, tc.ok)
		}
		if ok {
			beyond := 0
			for _, x := range ramp(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
			}
		}
	}
}

func TestRepTail(t *testing.T) {
	if got := repTail([]float64{3, 9, 1}); got != 9 {
		t.Errorf("small repetition: got %v, want its slowest request 9", got)
	}
	ramp := make([]float64, blockTail)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	if got := repTail(ramp); got != 989 {
		t.Errorf("%d requests: got %v, want their p99 989", blockTail, got)
	}
	if got := repTail(nil); got != 0 {
		t.Errorf("no requests: got %v", got)
	}
}

// TestP99IndependentOfRepCount pins that a paper run's p99_ms reads the
// same grid whether it keeps few repetitions or many: each repetition
// has 16 grid latencies in fixed clusters, the slowest at 160 ms.
func TestP99IndependentOfRepCount(t *testing.T) {
	for _, reps := range []int{3, 8, 10, 11, 16} {
		var s samples
		for r := range reps {
			lat := make([]float64, 16)
			for g := range lat {
				lat[g] = float64(10*(g+1)) * (1 + 0.001*float64(r%3))
			}
			s.reps = append(s.reps, repSample{wall: 1, lat: lat, tail: repTail(lat)})
		}
		out := &outcome{values: map[string]float64{}}
		s.report(out, []float64{1}, []float64{0}, "grid requests")
		if got := out.values["p99_ms"]; got < 160 || got > 161 {
			t.Errorf("%d repetitions: p99_ms %v, want the slowest grid (160)", reps, got)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeNested(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "rep", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "grid", Start: ms(10), End: ms(60)},
		{ID: 3, Parent: 2, Name: "job", Start: ms(20), End: ms(30)},
		{ID: 4, Parent: 1, Name: "render", Start: ms(70), End: ms(80)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(40), 2: ms(40), 3: ms(10), 4: ms(10)} {
		if self[id] != want {
			t.Errorf("span %d self = %v, want %v", id, self[id], want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two workers' jobs overlap inside one grid span, and one job runs
	// past the grid's end: only the union inside the parent counts.
	spans := []Span{
		{ID: 1, Name: "grid", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "job", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Name: "job", Start: ms(30), End: ms(70)},
		{ID: 4, Parent: 1, Name: "job", Start: ms(90), End: ms(120)},
		{ID: 5, Parent: 1, Name: "job", Start: ms(40), End: ms(45)},
	}
	self := selfTimes(spans)
	// Covered: [10,70) and [90,100) = 70 ms.
	if self[1] != ms(30) {
		t.Errorf("grid self = %v, want 30ms", self[1])
	}
	if self[4] != ms(30) {
		t.Errorf("childless span self = %v, want its duration", self[4])
	}
	if got := unattributed(spans, []int{1}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("unattributed share = %v, want 0.3", got)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", 0, "")
	tr.End(id)
	tr.Add("y", id, "", time.Now(), time.Now())
	if id != 0 || tr.Spans() != nil {
		t.Fatalf("nil tracer recorded spans")
	}
	tr = NewTracer()
	root := tr.Begin("rep", 0, "r")
	kid := tr.Begin("grid", root, "g")
	tr.End(kid)
	tr.End(root)
	sp := tr.Spans()
	if len(sp) != 2 || sp[1].Parent != sp[0].ID || sp[0].End < sp[1].End || sp[1].Owner != "g" {
		t.Fatalf("spans = %+v", sp)
	}
}

func TestMixDeterministic(t *testing.T) {
	grids := []string{"table1", "fig6"}
	keys := []string{"k1", "k2", "k3"}
	benches := []string{"li", "swim"}
	a := buildMix(7, 500, grids, keys, benches)
	b := buildMix(7, 500, grids, keys, benches)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request streams")
	}
	if reflect.DeepEqual(a, buildMix(8, 500, grids, keys, benches)) {
		t.Fatal("different seeds gave the same request stream")
	}
	kinds := map[string]int{}
	seeds := map[uint64]bool{}
	for _, m := range a {
		kinds[m.Kind]++
		if m.Kind == kindWrite {
			if m.Seed == 7 || seeds[m.Seed] {
				t.Fatalf("write seed %d is not fresh", m.Seed)
			}
			seeds[m.Seed] = true
		}
	}
	for _, k := range []string{kindGrid, kindCell, kindWrite} {
		if kinds[k] == 0 {
			t.Errorf("no %s requests in the mix: %v", k, kinds)
		}
	}
}

func TestParseGroupKey(t *testing.T) {
	s, ok := parseGroupKey("g|4:swim|b500000|s3|ba0")
	if !ok || s != (stream{bench: "swim", budget: 500000, seed: 3}) {
		t.Fatalf("got %+v ok=%v", s, ok)
	}
	for _, bad := range []string{"v1|b1|s1", "g|9:swim|b1|s1|ba0", "g|x:swim", "g|4:swim|q"} {
		if _, ok := parseGroupKey(bad); ok {
			t.Errorf("parsed %q", bad)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("0-2,1009")
	if err != nil || !reflect.DeepEqual(got, []uint64{0, 1, 2, 1009}) {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := parseSeeds("3-1"); err == nil {
		t.Fatal("accepted a reversed range")
	}
}

// TestBenchmarkJSONMatches pins the repository's BENCHMARK.json to the
// metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		better := "higher"
		if d.lower {
			better = "lower"
		}
		got := spec.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != better {
			t.Errorf("end_to_end[%d] = %+v, program reports %s %s %s", i, got, d.name, d.unit, better)
		}
	}
	layers := perLayer()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(layers))
	}
	for i, d := range layers {
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, program reports %s %s", i, got, d.name, d.unit)
		}
	}
}

func TestLeastStolen(t *testing.T) {
	steal := []float64{0.30, 0.01, 0.20, 0.01, 0.00, 0.15, 0.05}
	// Half of seven rounds up to four; ties keep their order.
	if got, want := leastStolen(steal), []int{4, 1, 3, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("kept %v, want %v", got, want)
	}
	if got := leastStolen(steal[:2]); len(got) != 2 {
		t.Errorf("kept %v of 2, want both (fewer than minReps)", got)
	}
	if got := leastStolen(steal[:4]); len(got) != minReps {
		t.Errorf("kept %v of 4, want minReps", got)
	}
	// Measurements under negligible steal are all kept.
	if got := leastStolen([]float64{0.001, 0, 0.01, 0.002, 0.2, 0}); !reflect.DeepEqual(got, []int{1, 5, 0, 3, 2}) {
		t.Errorf("kept %v, want every low-steal measurement", got)
	}
}
