package harness

import (
	"context"
	"sync"

	"dynloop/internal/builder"
	"dynloop/internal/interp"
	"dynloop/internal/trace"
)

// MaxRecordings bounds the control-plane recordings one Recordings set
// keeps. A render of the paper's evaluation needs one per benchmark; a
// daemon serving ever new seeds evicts the least recently used
// recording instead of growing.
const MaxRecordings = 32

type recKey struct {
	bench string
	seed  uint64
}

type recEntry struct {
	rec  *interp.CtlRecording
	used uint64 // recency stamp for LRU eviction
}

// Recordings is the control-plane recordings of the streams one runner
// has traversed, keyed by (benchmark, seed): the first tier Traverse
// consults. It is safe for concurrent use. Each runner owns one, so a
// fresh runner interprets every stream again.
type Recordings struct {
	mu   sync.Mutex
	m    map[recKey]recEntry
	tick uint64
}

// NewRecordings returns an empty set.
func NewRecordings() *Recordings {
	return &Recordings{m: make(map[recKey]recEntry)}
}

// Len returns the number of recordings held; it never exceeds
// MaxRecordings.
func (s *Recordings) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// lookup returns the recording of (bench, seed), or nil.
func (s *Recordings) lookup(bench string, seed uint64) *interp.CtlRecording {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := recKey{bench, seed}
	e, ok := s.m[k]
	if !ok {
		return nil
	}
	s.tick++
	e.used = s.tick
	s.m[k] = e
	return e.rec
}

// publish installs rec (nil is ignored) as the recording of (bench,
// seed), unless the one held already serves every budget rec serves.
func (s *Recordings) publish(bench string, seed uint64, rec *interp.CtlRecording) {
	if rec == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	k := recKey{bench, seed}
	if e, ok := s.m[k]; ok {
		if !e.rec.Covers(rec) {
			e.rec = rec
		}
		e.used = s.tick
		s.m[k] = e
		return
	}
	if len(s.m) >= MaxRecordings {
		var victim recKey
		oldest := ^uint64(0)
		for k, e := range s.m {
			if e.used < oldest {
				victim, oldest = k, e.used
			}
		}
		delete(s.m, victim)
	}
	s.m[k] = recEntry{rec: rec, used: s.tick}
}

// Source names what fed the passes of a Traverse call.
type Source uint8

const (
	// Interpreted: the interpreter ran the stream (recording it into
	// the trace archive when one is configured).
	Interpreted Source = iota
	// FromArchive: a trace-archive replay.
	FromArchive
	// FromRecording: a replay of a control-plane recording.
	FromRecording
)

// Traverse feeds the passes one traversal of the stream of benchmark
// bench at seed, up to cfg.Budget, from the first of three sources that
// can serve it:
//
//  1. recs, when it holds a recording that covers the budget (see
//     interp.CtlRecording.CanServe) and every pass is control-only;
//  2. the trace archive tr, when non-nil (see Traces.MultiRun);
//  3. interpretation of the unit build returns.
//
// Passes that read the data tap are always interpreted, on path 2 too
// (see ArchiveServes): recordings carry no data, and the archive holds
// full events, not the tap. Paths 2 and 3 record the branch outcomes of a control-only
// traversal and, once it completes, publish the recording in recs for
// the traversals after it. recs may be nil. Results are byte-identical
// from every source.
func Traverse(ctx context.Context, recs *Recordings, tr *Traces, bench string, seed uint64,
	build func() (*builder.Unit, error), cfg MultiConfig, passes ...trace.Pass) (MultiResult, Source, error) {

	var recorder *interp.CtlRecorder
	if recs != nil && ctlOnly(passes) {
		if rec := recs.lookup(bench, seed); rec != nil && rec.CanServe(cfg.Budget) {
			res, err := replayCtl(rec, cfg, passes)
			return res, FromRecording, err
		}
		recorder = &interp.CtlRecorder{}
		// Copy, so the caller's spare capacity is never written.
		passes = append(passes[:len(passes):len(passes)], recorder)
	}
	var res MultiResult
	src := Interpreted
	if tr != nil {
		var replayed bool
		var err error
		if res, replayed, err = tr.MultiRun(ctx, bench, seed, build, cfg, passes...); err != nil {
			return res, src, err
		}
		if replayed {
			src = FromArchive
		}
	} else {
		u, err := build()
		if err != nil {
			return MultiResult{}, src, err
		}
		if res, err = MultiRun(u, cfg, passes...); err != nil {
			return res, src, err
		}
	}
	if recorder != nil {
		// An archive replay never built the unit; a registered
		// benchmark builds its program once per process, so this only
		// binds it to the seed as a rule. A build that fails only loses
		// the recording.
		if u, err := build(); err == nil {
			recs.publish(bench, seed, recorder.Recording(u.Code(), res.Halted))
		}
	}
	return res, src, nil
}

// ArchiveServes reports whether the trace archive may serve or record a
// traversal of the passes: none of them reads the data tap, which only
// the interpreter produces.
func ArchiveServes(passes ...trace.Pass) bool {
	for _, p := range passes {
		if trace.PlanesOf(p)&trace.PlaneTap != 0 {
			return false
		}
	}
	return true
}

// ctlOnly reports whether every pass reads only the control plane.
func ctlOnly(passes []trace.Pass) bool {
	for _, p := range passes {
		if trace.PlanesOf(p) != trace.PlaneCtl {
			return false
		}
	}
	return true
}

// replayCtl feeds the passes from a control-plane recording.
func replayCtl(rec *interp.CtlRecording, cfg MultiConfig, passes []trace.Pass) (MultiResult, error) {
	return fanOut(passes, func(b *trace.Broadcast) (uint64, bool, error) {
		return rec.Replay(cfg.Budget, cfg.BatchSize, b)
	})
}
