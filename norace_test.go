//go:build !race

package dynloop_test

const raceEnabled = false
