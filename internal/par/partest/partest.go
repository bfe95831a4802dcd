// Package partest holds test helpers for the parallel engine. It lives
// in its own package so the engine itself never imports testing.
package partest

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sudc/internal/par"
)

// WithDefaultWorkers overrides the process-wide default worker count
// for the duration of the test (or benchmark) and restores the previous
// override via t.Cleanup — so a failing or panicking test can no longer
// leak its override into later tests in the process.
func WithDefaultWorkers(t testing.TB, n int) {
	t.Helper()
	prev := par.SetDefaultWorkers(n)
	t.Cleanup(func() { par.SetDefaultWorkers(prev) })
}

// BytesPerExtraItem returns the bytes run(n) allocates for each item
// beyond a small run's: the difference between run(large) and
// run(small), per extra item, so fixed per-call costs cancel. It warms
// pools with one small run first, keeps the GC off while it measures,
// since a collection empties sync.Pool, and runs with one worker, so
// items do not hop to a processor whose pool share is still cold.
// Guards that hold it under a bound skip under the race detector
// (RaceEnabled).
func BytesPerExtraItem(t testing.TB, small, large int, run func(n int)) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer par.SetDefaultWorkers(par.SetDefaultWorkers(1))
	measure := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(n)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run(small)
	a, b := measure(small), measure(large)
	if b < a {
		return 0
	}
	return float64(b-a) / float64(large-small)
}
