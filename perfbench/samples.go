package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"
)

// samples gathers the untraced repetitions of a run.
type samples struct {
	reps  []repSample
	steal float64 // host steal share over the whole measuring loop
	// current repetition's steal window
	stealT0 time.Time
	stealS0 uint64
}

// repSample is one repetition's measurements.
type repSample struct {
	wall, alloc, disk, steal float64
	lat                      []float64 // per request, ms
	tail                     float64   // repTail of lat
}

// blockTail is the request count from which a repetition's own tail
// percentile is the 99th (ten samples beyond it).
const blockTail = 1000

// repTail is a repetition's own tail latency: its 99th percentile when it
// has at least blockTail requests, else its slowest request (a paper
// repetition has one request per registered grid). p99_ms is the median
// of these over the repetitions kept, so it does not depend on how many
// repetitions a run makes or keeps.
func repTail(lat []float64) float64 {
	if len(lat) >= blockTail {
		_, t, _ := tail(lat)
		return t
	}
	if len(lat) == 0 {
		return 0
	}
	return slices.Max(lat)
}

// repeat calls rep until d has passed and at least minReps calls
// succeeded, or until minReps calls failed.
func (s *samples) repeat(d time.Duration, rep func() bool) {
	start, st0 := time.Now(), stealTicks()
	ok, failed := 0, 0
	for ok < minReps || time.Since(start) < d {
		s.stealT0, s.stealS0 = time.Now(), stealTicks()
		if rep() {
			ok++
		} else if failed++; failed >= minReps {
			break
		}
	}
	s.steal = stealShare(st0, start)
}

// stealShare is the share of the host's CPU time the hypervisor stole
// since ticks0 was read at t0.
func stealShare(ticks0 uint64, t0 time.Time) float64 {
	return float64(stealTicks()-ticks0) / (time.Since(t0).Seconds() * 100 * float64(runtime.NumCPU()))
}

// add records the repetition that just ended and the latencies of its
// requests.
func (s *samples) add(wall time.Duration, alloc uint64, disk int64, lat []time.Duration) {
	s.reps = append(s.reps, repSample{wall: wall.Seconds(), alloc: float64(alloc) / 1e6,
		disk: float64(disk) / 1e6, steal: stealShare(s.stealS0, s.stealT0), lat: millis(lat)})
	r := &s.reps[len(s.reps)-1]
	r.tail = repTail(r.lat)
}

// stealOK is the steal share below which a measurement is always kept.
const stealOK = 0.01

// leastStolen returns the indices of the measurements to report: the
// half (at least minReps) taken under the least steal, plus every other
// one taken under at most stealOK. Steal arrives in bursts of
// milliseconds that land on whole requests, so it moves tail latency far
// more than it moves the program's own cost.
func leastStolen(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	n := min(len(idx), max(minReps, (len(idx)+1)/2))
	for n < len(idx) && steal[idx[n]] <= stealOK {
		n++
	}
	return idx[:n]
}

// setups times n calls of setup, each with the steal share it ran under.
func setups(n int, setup func(i int) error) (secs, steal []float64, err error) {
	for i := range n {
		t0, s0 := time.Now(), stealTicks()
		if err := setup(i); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		steal = append(steal, stealShare(s0, t0))
	}
	return secs, steal, nil
}

// report sets the end-to-end metrics from the least-stolen repetitions
// and set-ups, and notes the sample counts.
func (s *samples) report(out *outcome, setupS, setupSteal []float64, requests string) {
	repSteal := make([]float64, len(s.reps))
	for i, r := range s.reps {
		repSteal[i] = r.steal
	}
	var kept []repSample
	for _, i := range leastStolen(repSteal) {
		kept = append(kept, s.reps[i])
	}
	var setup []float64
	for _, i := range leastStolen(setupSteal) {
		setup = append(setup, setupS[i])
	}
	var walls, allocs, disks, rps, lat, tails, steal []float64
	for _, r := range kept {
		walls = append(walls, r.wall)
		allocs = append(allocs, r.alloc)
		disks = append(disks, r.disk)
		rps = append(rps, float64(len(r.lat))/r.wall)
		lat = append(lat, r.lat...)
		tails = append(tails, r.tail)
		steal = append(steal, 100*r.steal)
	}
	v := out.values
	v["wall_s"], v["setup_s"] = median(walls), median(setup)
	v["alloc_mb"], v["disk_mb"], v["rps"] = median(allocs), median(disks), median(rps)
	v["p50_ms"], v["p99_ms"] = median(lat), median(tails)
	how := "slowest"
	if len(kept) > 0 && len(kept[0].lat) >= blockTail {
		how = "p99"
	}
	out.notes = append(out.notes,
		fmt.Sprintf("samples: the %d least-stolen of %d repetitions (wall_s, alloc_mb, disk_mb, rps; p99_ms is the median of each one's %s of its %s), %d of %d set-ups (setup_s), %d %s (p50_ms)",
			len(kept), len(s.reps), how, requests, len(setup), len(setupS), len(lat), requests),
		fmt.Sprintf("wall_s of those: %.4g", walls),
		fmt.Sprintf("host steal: %.1f%% of CPU time while measuring; %.3g%% in the repetitions kept", 100*s.steal, steal))
}
