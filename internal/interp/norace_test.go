//go:build !race

package interp

const raceEnabled = false
