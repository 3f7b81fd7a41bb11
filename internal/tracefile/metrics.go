package tracefile

import (
	"time"

	"dynloop/internal/obs"
)

// Replay throughput and archive health metrics. Replay accounting is
// per-Replay-call (two timestamps, a few atomics), never per event, so
// the decode loops stay allocation-free and the replay/interp speedup
// ratio pinned by bench_smoke.sh is unaffected. An Archive counts
// through children of the archive series (see OpenArchive), so its
// Stats and the process-wide scrape move together.
var (
	mReplayEvents = obs.NewCounter("dynloop_replay_events_total",
		"Events delivered by trace-archive replay across all Replay calls.")
	mReplayNsPerEvent = obs.NewGauge("dynloop_replay_ns_per_event",
		"Nanoseconds per event of the most recent Replay call.")
	mReplayRunsCtl = obs.NewCounter("dynloop_replay_runs_total",
		"Replay calls by negotiated event facet.", "plane", "ctl")
	mReplayRunsFull = obs.NewCounter("dynloop_replay_runs_total",
		"Replay calls by negotiated event facet.", "plane", "full")

	mArchRecords = obs.NewCounter("dynloop_archive_records_total",
		"Recordings committed to the trace archive.")
	mArchInvalidated = obs.NewCounter("dynloop_archive_invalidated_total",
		"Archive files skipped at open for block-level damage (re-recorded on next miss).")
	mArchSchemaSkips = obs.NewCounter("dynloop_archive_schema_skips_total",
		"Archive files skipped at open for schema version skew.")
	mArchTruncatedBytes = obs.NewCounter("dynloop_archive_truncated_bytes_total",
		"Bytes discarded repairing torn archive tails at open.")
)

// finishReplay books one Replay call's throughput metrics.
func finishReplay(start time.Time, n uint64, ctl bool) {
	if ctl {
		mReplayRunsCtl.Inc()
	} else {
		mReplayRunsFull.Inc()
	}
	if n > 0 {
		mReplayEvents.Add(n)
		mReplayNsPerEvent.Set(float64(time.Since(start).Nanoseconds()) / float64(n))
	}
}

// ReplayPlaneRuns reports the process-lifetime count of Replay calls
// that negotiated control-plane-only decode vs full-event decode, for
// the daemon's /v1/stats.
func ReplayPlaneRuns() (ctl, full uint64) {
	return mReplayRunsCtl.Value(), mReplayRunsFull.Value()
}
