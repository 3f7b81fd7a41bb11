package runner

import "dynloop/internal/obs"

// The runner's process-wide series, registered in the obs default
// registry for GET /metrics. Each Runner counts through children of
// these (see New), so a series reads the sum over every runner in the
// process and a fresh daemon's scrape equals its runner's Stats. All
// bumps are plain atomic adds — the job dispatch path stays
// allocation-free.
var (
	mSubmitted  = obs.NewCounter("dynloop_runner_jobs_submitted_total", "Jobs handed to Map/MapGroups.")
	mExecuted   = obs.NewCounter("dynloop_runner_jobs_executed_total", "Jobs that actually ran (cache misses).")
	mCacheHits  = obs.NewCounter("dynloop_runner_cache_hits_total", "Jobs satisfied by the in-memory result tier.")
	mCoalesced  = obs.NewCounter("dynloop_runner_coalesced_total", "Jobs that joined an identical in-flight cell.")
	mFailures   = obs.NewCounter("dynloop_runner_failures_total", "Failed job executions.")
	mGroupRuns  = obs.NewCounter("dynloop_runner_group_runs_total", "Fused group executions (MapGroups).")
	mDiskHits   = obs.NewCounter("dynloop_runner_disk_hits_total", "Jobs satisfied from the second (disk-store) tier.")
	mDiskPuts   = obs.NewCounter("dynloop_runner_disk_puts_total", "Results written back to the second tier.")
	mTierErrors = obs.NewCounter("dynloop_runner_tier_errors_total", "Second-tier operations that failed (treated as misses).")
	mReplayRuns = obs.NewCounter("dynloop_runner_replay_runs_total", "Group executions served by trace-archive replay.")
	mRecordRuns = obs.NewCounter("dynloop_runner_record_runs_total", "Group executions that interpreted and recorded the stream.")
	mJobSeconds = obs.NewHistogram("dynloop_runner_job_seconds",
		"Wall-clock seconds per executed job (cache hits excluded).", obs.DefLatencyBuckets)
)
