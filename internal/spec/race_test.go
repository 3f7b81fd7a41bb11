//go:build race

package spec_test

// raceEnabled reports whether the race detector is on; its runtime
// makes traversals an order of magnitude slower and its allocation
// counts are not what production sees.
const raceEnabled = true
