// Package partest holds test helpers for the parallel engine. It lives
// in its own package so the engine itself never imports testing.
package partest

import (
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
