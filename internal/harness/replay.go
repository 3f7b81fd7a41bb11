package harness

import (
	"context"
	"sync"
	"sync/atomic"

	"dynloop/internal/builder"
	"dynloop/internal/obs"
	"dynloop/internal/trace"
	"dynloop/internal/tracefile"
)

// mReplays counts trace-archive replays started by Traces.MultiRun
// across the process; a replay deliberately does NOT count as an
// interpreter traversal (see Traversals), so "warm archive ⇒ zero
// traversals" is an assertable property. Each Traces counts its replays
// and fallbacks through children of these series.
var (
	mReplays = obs.NewCounter("dynloop_replays_total",
		"Trace-archive replays started by Traces.MultiRun.")
	mTraceFallbacks = obs.NewCounter("dynloop_trace_fallbacks_total",
		"Trace-tier runs that degraded to plain interpretation because the recorder could not start.")
)

// Replays returns the process-lifetime count of trace-archive replays.
func Replays() uint64 { return mReplays.Value() }

// Traces is the replay tier: a trace archive plus the record-or-replay
// orchestration that lets MultiRun-shaped work skip interpretation. The
// first run of a (benchmark, seed) records its stream into the archive
// while the live passes consume it; every later run whose budget the
// recording covers replays the file — a pure decode, no interpreter.
// Concurrent missers of one key serialize on a per-key lock so exactly
// one records and the rest replay the fresh recording.
type Traces struct {
	arch *tracefile.Archive
	// decoders pools replay buffers so the hot loop is allocation-free.
	decoders sync.Pool

	replayed, fallbacks *obs.Counter
	recorded            atomic.Uint64
}

// NewTraces wraps an opened archive in the replay tier.
func NewTraces(a *tracefile.Archive) *Traces {
	return &Traces{arch: a, replayed: mReplays.Child(), fallbacks: mTraceFallbacks.Child()}
}

// Archive returns the underlying trace archive.
func (t *Traces) Archive() *tracefile.Archive { return t.arch }

// TracesStats counts this tier's record/replay decisions.
type TracesStats struct {
	// Replays is the number of MultiRun calls served by decode-only
	// replay.
	Replays uint64
	// Records is the number of MultiRun calls that interpreted and
	// recorded the stream.
	Records uint64
	// Fallbacks is the number of MultiRun calls that degraded to plain
	// interpretation because the recorder could not start (e.g. the
	// archive directory became unwritable).
	Fallbacks uint64
}

// Stats returns a snapshot of the tier's counters.
func (t *Traces) Stats() TracesStats {
	return TracesStats{
		Replays:   t.replayed.Value(),
		Records:   t.recorded.Load(),
		Fallbacks: t.fallbacks.Value(),
	}
}

// MultiRun is the replay-backed analogue of the package-level MultiRun.
// If the archive holds a recording of (bench, seed) that covers
// cfg.Budget, the passes are fed by decoding it — build is never called
// and no interpreter traversal happens. Otherwise the unit is built and
// interpreted exactly as MultiRun would, with the stream additionally
// recorded into the archive for every later caller. The boolean result
// reports which path ran (true = replayed). Pass and render results are
// byte-identical either way; that equivalence is pinned by the
// replay-equivalence test suite. Passes that read the data tap (see
// ArchiveServes) are interpreted without touching the archive.
func (t *Traces) MultiRun(ctx context.Context, bench string, seed uint64,
	build func() (*builder.Unit, error), cfg MultiConfig, passes ...trace.Pass) (MultiResult, bool, error) {

	if !ArchiveServes(passes...) {
		u, err := build()
		if err != nil {
			return MultiResult{}, false, err
		}
		res, err := MultiRun(u, cfg, passes...)
		return res, false, err
	}

	if rec, ok := t.arch.Lookup(bench, seed); ok && rec.CanServe(cfg.Budget) {
		res, err := t.replay(rec, cfg, passes...)
		return res, true, err
	}
	unlock, err := t.arch.Lock(ctx, bench, seed)
	if err != nil {
		return MultiResult{}, false, err
	}
	defer unlock()
	// Re-check under the lock: a concurrent misser may have just
	// committed a recording that covers us.
	if rec, ok := t.arch.Lookup(bench, seed); ok && rec.CanServe(cfg.Budget) {
		res, err := t.replay(rec, cfg, passes...)
		return res, true, err
	}
	u, err := build()
	if err != nil {
		return MultiResult{}, false, err
	}
	rec, err := t.arch.BeginRecord(bench, seed, u.Prog)
	if err != nil {
		// The archive directory is unusable (e.g. disk full): degrade to
		// plain interpretation rather than failing the run.
		t.fallbacks.Inc()
		res, err := MultiRun(u, cfg, passes...)
		return res, false, err
	}
	mTraversals.Inc()
	cpu := u.NewCPU()
	defer cpu.Release()
	cpu.SetBatchSize(cfg.BatchSize)
	res, err := fanOut(passes, func(b *trace.Broadcast) (uint64, bool, error) {
		n, err := cpu.Run(cfg.Budget, trace.BatchTee{rec, b})
		return n, cpu.Halted(), err
	})
	if err != nil {
		rec.Abort()
		return res, false, err
	}
	t.recorded.Add(1)
	// A failed commit loses the recording but not the run: the passes
	// already saw the live stream.
	_ = rec.Commit(res.Halted)
	return res, false, nil
}

// replay feeds the passes from the recording, one batch per block.
func (t *Traces) replay(rec *tracefile.Recording, cfg MultiConfig, passes ...trace.Pass) (MultiResult, error) {
	t.replayed.Inc()
	d, _ := t.decoders.Get().(*tracefile.Decoder)
	if d == nil {
		d = &tracefile.Decoder{}
	}
	defer t.decoders.Put(d)
	return fanOut(passes, func(b *trace.Broadcast) (uint64, bool, error) {
		return rec.Replay(cfg.Budget, d, b)
	})
}
