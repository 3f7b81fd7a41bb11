package store

import "dynloop/internal/obs"

// Store metrics, registered in the obs default registry. A Store
// counts puts, gets, hits and torn-tail bytes through children of
// these series (see Open), so its Stats and the process-wide scrape
// move together; a daemon opens one store, so there the two are
// equal. Each operation adds a constant number of atomic ops next to
// a disk write or read, so the overhead is noise.
var (
	mPuts = obs.NewCounter("dynloop_store_puts_total",
		"Result-store Put operations.")
	mPutBytes = obs.NewCounter("dynloop_store_put_bytes_total",
		"Bytes appended to result-store segments by Put (framing included).")
	mGets = obs.NewCounter("dynloop_store_gets_total",
		"Result-store Get operations.")
	mHits = obs.NewCounter("dynloop_store_hits_total",
		"Result-store Gets that found their key.")
	mRotations = obs.NewCounter("dynloop_store_rotations_total",
		"Segment rotations triggered by Put crossing the size limit.")
	mSegScans = obs.NewCounter("dynloop_store_segment_scans_total",
		"Segment files scanned while rebuilding the index at Open.")
	mTruncatedBytes = obs.NewCounter("dynloop_store_truncated_bytes_total",
		"Torn-tail bytes discarded recovering the newest segment at Open.")
	mOpenSeconds = obs.NewHistogram("dynloop_store_open_seconds",
		"Store Open latency in seconds (a full scan of every segment).",
		obs.DefLatencyBuckets)
)
