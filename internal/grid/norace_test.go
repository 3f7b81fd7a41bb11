//go:build !race

package grid_test

const raceEnabled = false
