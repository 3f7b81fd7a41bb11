//go:build race

package datapred_test

// raceEnabled reports whether the race detector is on; its allocation
// counts are not what production sees.
const raceEnabled = true
