// Package tracetest builds the flight recording the codec and latency
// benchmarks share. It lives in its own package so package trace and
// its analysers never import the simulator outside their tests.
package tracetest

import (
	"sync"
	"testing"
	"time"

	"sudc/internal/degrade"
	"sudc/internal/faults"
	"sudc/internal/netsim"
	"sudc/internal/obs/trace"
	"sudc/internal/workload"
)

// reference records the run once per test binary.
var reference = sync.OnceValues(func() (*trace.Recorder, error) {
	c := netsim.DefaultConfig(workload.Suite[0])
	c.Duration = 10 * time.Minute
	c.Faults = faults.Scenario{
		NodeMTTF:          8 * time.Hour,
		SEFIMTBE:          30 * time.Minute,
		SEFIRecovery:      30 * time.Second,
		ISLOutageMTBF:     30 * time.Minute,
		ISLOutageDuration: time.Minute,
	}
	p := degrade.COTSProfile(1)
	c.Degrade = &p
	c.Window = time.Minute
	c.Trace = trace.New(0)
	if _, err := netsim.Run(c); err != nil {
		return nil, err
	}
	return c.Trace, nil
})

// Reference returns the recording of the 10-minute faulted and
// COTS-degraded reference run: Table III's first application with the
// BenchmarkNetsimFaulted fault mix, degrade.COTSProfile(1) and
// one-minute windows. Callers share it and must not record into it.
func Reference(tb testing.TB) *trace.Recorder {
	tb.Helper()
	rec, err := reference()
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}
