package main

import (
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// tail reports the highest percentile (capped at the 99th) that has at
// least tailBeyond samples strictly beyond it, by nearest rank, and the
// sample at that rank. ok is false when there are too few samples for
// any percentile to qualify.
func tail(samples []float64) (pct, value float64, ok bool) {
	n := len(samples)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	// Nearest rank of the q-quantile is ceil(q*n)-1. For q = 0.99 that
	// is ceil(99n/100)-1; below 1000 samples the 99th percentile has
	// fewer than ten samples beyond it, so q drops to 1-10/n, whose rank
	// is n-11.
	idx := (99*n+99)/100 - 1
	pct = 99
	if n-1-idx < tailBeyond {
		idx = n - 1 - tailBeyond
		pct = 100 * float64(n-tailBeyond) / float64(n)
	}
	return pct, s[idx], true
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
