//go:build race

package partest

// RaceEnabled reports whether the race detector is on. It drops a
// quarter of sync.Pool puts, so an allocation guard over pooled state
// measures the detector, not the code, and skips under it.
const RaceEnabled = true
