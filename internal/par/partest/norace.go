//go:build !race

package partest

// RaceEnabled reports whether the race detector is on (see race.go).
const RaceEnabled = false
