//go:build race

package expt

// raceEnabled reports whether the race detector is on. Its runtime drops
// Puts to the standard library's sync.Pools at random, so a render
// allocates more than production sees.
const raceEnabled = true
