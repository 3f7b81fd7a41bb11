package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynloop/internal/client"
	"dynloop/internal/expt"
	"dynloop/internal/obs"
	"dynloop/internal/wire"
)

// soakReport is the JSON result of a soak run: sustained client-side
// throughput plus server-side latency quantiles derived from the
// /metrics histogram deltas, and whether the scrape reconciled with the
// daemon's own /v1/stats counters.
type soakReport struct {
	Remote     string   `json:"remote"`
	Clients    int      `json:"clients"`
	DurationS  float64  `json:"duration_s"`
	Requests   uint64   `json:"requests"`
	Errors     uint64   `json:"errors"`
	RPS        float64  `json:"rps"`
	CellsPer   int      `json:"cells_per_request"`
	CellsPerS  float64  `json:"cells_per_s"`
	P50Ms      float64  `json:"p50_ms"`
	P99Ms      float64  `json:"p99_ms"`
	Reconciled bool     `json:"reconciled"`
	Mismatches []string `json:"mismatches,omitempty"`
}

// cmdSoak drives a serve daemon with N concurrent clients issuing the
// same sweep grid (POST /v1/grid) for a fixed wall-clock duration — the
// shared-grid shape where every request past the first hits the memory
// tier — then derives the report from the daemon's exported metrics.
// Reconciliation assumes the soak is the daemon's only active client:
// it compares the movement of the scraped runner mirrors against the
// movement of the runner's own /v1/stats counters, which must match
// exactly.
func cmdSoak(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	remote := fs.String("remote", "", "base URL of the dynloop serve daemon to soak (required)")
	clients := fs.Int("clients", 4, "concurrent client goroutines")
	duration := fs.Duration("duration", 10*time.Second, "sustained load duration")
	benches := fs.String("bench", "swim,compress", "comma-separated benchmarks per sweep")
	policies := fs.String("policy", "str,str3", "comma-separated policies per sweep")
	tus := fs.String("tus", "2,4", "comma-separated machine sizes per sweep")
	n := fs.Uint64("n", 200_000, "per-benchmark instruction budget")
	seed := fs.Uint64("seed", 1, "workload input seed")
	out := fs.String("o", "", "write the JSON report to this file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == "" {
		return fmt.Errorf("missing -remote URL (start one with: dynloop serve)")
	}
	benchList, gs, err := sweepGrid(*benches, *policies, *tus)
	if err != nil {
		return err
	}
	req := wire.GridRequest{Spec: &gs, Benchmarks: benchList, Budget: *n, Seed: *seed}
	cells, err := gs.Size(expt.Config{Budget: *n, Seed: *seed, Benchmarks: benchList})
	if err != nil {
		return err
	}

	c := client.New(*remote, nil)
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("daemon at %s: %w", *remote, err)
	}

	statsBefore, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	mBefore, err := c.Metrics(ctx)
	if err != nil {
		return err
	}

	deadline := time.Now().Add(*duration)
	loadCtx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	var requests, errors atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && loadCtx.Err() == nil {
				if _, err := c.Grid(loadCtx, req); err != nil {
					if loadCtx.Err() != nil {
						return // deadline cut the request short, not a failure
					}
					errors.Add(1)
					continue
				}
				requests.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	statsAfter, err := settle(ctx, c)
	if err != nil {
		return err
	}
	mAfter, err := c.Metrics(ctx)
	if err != nil {
		return err
	}

	rep := soakReport{
		Remote:    *remote,
		Clients:   *clients,
		DurationS: elapsed.Seconds(),
		Requests:  requests.Load(),
		Errors:    errors.Load(),
		RPS:       float64(requests.Load()) / elapsed.Seconds(),
		CellsPer:  cells,
		CellsPerS: float64(requests.Load()) * float64(cells) / elapsed.Seconds(),
	}
	rep.P50Ms, rep.P99Ms, err = gridQuantileDeltas(mBefore, mAfter)
	if err != nil {
		return err
	}
	rep.Mismatches = reconcile(mBefore, mAfter, statsBefore, statsAfter, requests.Load())
	rep.Reconciled = len(rep.Mismatches) == 0

	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, body, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dynloop: soak report written to %s\n", *out)
	} else {
		os.Stdout.Write(body)
	}
	if !rep.Reconciled {
		return fmt.Errorf("metrics failed to reconcile with /v1/stats: %s", strings.Join(rep.Mismatches, "; "))
	}
	return nil
}

// settle returns a /v1/stats snapshot taken once the daemon has gone
// quiet: no request in flight but the stats request itself, and runner
// counters unchanged since the previous poll. A request the deadline cut
// short on the client may still be running on the daemon; its counter
// updates must not land between the stats and metrics scrapes that
// reconcile compares. After 5 s it returns the latest snapshot, and
// reconcile reports whatever still moved.
func settle(ctx context.Context, c *client.Client) (wire.Stats, error) {
	prev, err := c.Stats(ctx)
	for i := 0; err == nil && i < 250; i++ {
		time.Sleep(20 * time.Millisecond)
		var st wire.Stats
		if st, err = c.Stats(ctx); err == nil && st.Server.InFlight <= 1 && st.Runner == prev.Runner {
			return st, nil
		}
		prev = st
	}
	return prev, err
}

// gridQuantileDeltas derives p50/p99 (milliseconds) for the grid
// endpoint from the latency-histogram movement between two scrapes.
func gridQuantileDeltas(before, after map[string]float64) (p50, p99 float64, err error) {
	const fam = "dynloop_http_request_seconds"
	const sel = `endpoint="/v1/grid"`
	_, c0, err := obs.BucketsOf(before, fam, sel)
	if err != nil {
		return 0, 0, err
	}
	bounds, c1, err := obs.BucketsOf(after, fam, sel)
	if err != nil {
		return 0, 0, err
	}
	if len(c0) != len(c1) {
		return 0, 0, fmt.Errorf("soak: histogram bucket count changed between scrapes (%d -> %d)", len(c0), len(c1))
	}
	delta := make([]uint64, len(c1))
	for i := range c1 {
		delta[i] = c1[i] - c0[i]
	}
	p50 = 1000 * obs.Quantile(0.50, bounds, delta)
	p99 = 1000 * obs.Quantile(0.99, bounds, delta)
	if math.IsNaN(p50) || math.IsNaN(p99) {
		return 0, 0, fmt.Errorf("soak: no grid requests landed in the latency histogram")
	}
	return p50, p99, nil
}

// reconcile cross-checks the scraped counter movement against the
// daemon's own /v1/stats movement over the same window. Exact equality
// is the contract: both views are fed by the same atomic increments.
func reconcile(mBefore, mAfter map[string]float64, sBefore, sAfter wire.Stats, clientReqs uint64) []string {
	var bad []string
	delta := func(series string) uint64 {
		return uint64(mAfter[series] - mBefore[series])
	}
	checks := []struct {
		name   string
		scrape uint64
		stats  uint64
	}{
		{"runner submitted", delta("dynloop_runner_jobs_submitted_total"), sAfter.Runner.Submitted - sBefore.Runner.Submitted},
		{"runner executed", delta("dynloop_runner_jobs_executed_total"), sAfter.Runner.Executed - sBefore.Runner.Executed},
		{"runner cache hits", delta("dynloop_runner_cache_hits_total"), sAfter.Runner.CacheHits - sBefore.Runner.CacheHits},
		{"runner group runs", delta("dynloop_runner_group_runs_total"), sAfter.Runner.GroupRuns - sBefore.Runner.GroupRuns},
	}
	for _, ck := range checks {
		if ck.scrape != ck.stats {
			bad = append(bad, fmt.Sprintf("%s: scrape moved %d, stats moved %d", ck.name, ck.scrape, ck.stats))
		}
	}
	// Every completed client request must appear in the endpoint counter;
	// the counter may run ahead by requests the deadline aborted mid-
	// flight, never behind.
	if got := delta(`dynloop_http_requests_total{endpoint="/v1/grid"}`); got < clientReqs {
		bad = append(bad, fmt.Sprintf("grid endpoint counted %d requests, clients completed %d", got, clientReqs))
	}
	return bad
}
