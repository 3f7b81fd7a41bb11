//go:build race

package server

// raceEnabled reports whether the race detector is on. Its runtime
// drops sync.Pool Puts at random, so pooled buffers are reallocated and
// allocation counts are not what production sees.
const raceEnabled = true
