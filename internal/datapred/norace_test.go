//go:build !race

package datapred_test

const raceEnabled = false
