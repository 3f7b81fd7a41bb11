package interp

import "dynloop/internal/obs"

// Interpreter throughput metrics. All updates happen once per Run call
// — never per instruction — so a traversal of millions of events costs
// two timestamps and four atomic operations, invisible next to the
// retire loop and allocation-free (the AllocsPerRun=0 pins cover the
// instrumented path).
var (
	mInstructions = obs.NewCounter("dynloop_interp_instructions_total",
		"Instructions retired by the interpreter across all Run calls.")
	mNsPerInstr = obs.NewGauge("dynloop_interp_ns_per_instr",
		"Nanoseconds per instruction of the most recent Run call.")
	mRunsCtl = obs.NewCounter("dynloop_interp_runs_total",
		"Run calls by negotiated event facet.", "plane", "ctl")
	mRunsTap = obs.NewCounter("dynloop_interp_runs_total",
		"Run calls by negotiated event facet.", "plane", "tap")
	mRunsFull = obs.NewCounter("dynloop_interp_runs_total",
		"Run calls by negotiated event facet.", "plane", "full")
	mCtlReplays = obs.NewCounter("dynloop_ctl_replays_total",
		"Control-plane traversals replayed from branch-outcome recordings instead of interpreted.")
)

// CtlReplays returns the process-lifetime count of control-plane
// replays (CtlRecording.Replay calls).
func CtlReplays() uint64 { return mCtlReplays.Value() }

// PlaneRuns reports the process-lifetime count of Run calls that
// negotiated control-plane-only delivery, control-plane delivery with
// the data tap, and full-event delivery, for the daemon's /v1/stats.
func PlaneRuns() (ctl, tap, full uint64) {
	return mRunsCtl.Value(), mRunsTap.Value(), mRunsFull.Value()
}

// Instructions returns the process-lifetime retired instruction count.
func Instructions() uint64 { return mInstructions.Value() }

// LastNsPerInstr returns the ns/instr of the most recent Run call.
func LastNsPerInstr() float64 { return mNsPerInstr.Value() }
