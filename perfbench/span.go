package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer: its name, when it started and
// ended (offsets from the tracer's epoch), the span that caused it and
// the request or grid it belongs to.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = no parent
	Name   string        `json:"name"`
	Owner  string        `json:"owner,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so traced and untraced
// repetitions run the same code.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose offsets count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its id (0 when untraced).
func (t *Tracer) Begin(name string, parent int, owner string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Owner: owner, Start: now, End: -1})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records an already finished span from wall-clock times.
func (t *Tracer) Add(name string, parent int, owner string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Owner: owner,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes maps each span id to its duration minus the part of its
// interval covered by its children. Children may overlap one another
// (parallel workers) and may stick out of the parent; only the covered
// part of the parent's own interval is subtracted.
func selfTimes(spans []Span) map[int]time.Duration {
	kids := map[int][][2]time.Duration{}
	byID := map[int]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[p.ID] = append(kids[p.ID], [2]time.Duration{lo, hi})
			}
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(kids[s.ID])
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return total + hi - lo
}

// sumByName adds up the durations of the spans with the given name.
func sumByName(spans []Span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.Dur()
		}
	}
	return d
}
