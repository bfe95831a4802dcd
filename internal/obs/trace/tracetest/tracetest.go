// Package tracetest builds the flight recording the codec and latency
// benchmarks share, and measures what the recorder's readers allocate.
// It lives in its own package so package trace and its analysers never
// import the simulator outside their tests.
package tracetest

import (
	"math"
	"runtime"
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

// AllocBytes returns the fewest heap bytes one call of f allocated over
// runs calls, as runtime.MemStats.TotalAlloc counts them. The fewest
// leaves out what the runtime's own goroutines allocate at random
// points of a call.
func AllocBytes(runs int, f func()) uint64 {
	var ms runtime.MemStats
	best := uint64(math.MaxUint64)
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}

// Padded returns a new recorder holding the reference recording's
// events followed by pad span events. A span event carries no frame
// and no fault, so a reader that copies nothing of the recording
// allocates as much for the padded recording as for the plain one.
func Padded(tb testing.TB, pad int) *trace.Recorder {
	tb.Helper()
	rec := trace.New(0)
	Reference(tb).Each(func(e *trace.Event) { rec.Record(*e) })
	for i := 0; i < pad; i++ {
		rec.Record(trace.Event{T: 1, Kind: trace.SpanDone, Node: -1, Name: "pad"})
	}
	return rec
}
