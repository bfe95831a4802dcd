package latency

import "sudc/internal/obs/trace"

// Decompose reconstructs per-frame lineages from one scope's events (in
// record order), for the external tests. Frames are returned in
// ascending ID order.
func Decompose(events []trace.Event) []Frame {
	rec := trace.New(len(events))
	for _, e := range events {
		rec.Record(e)
	}
	return decompose("", rec)
}

// Sort is the sort kernel behind Summarize, for the external tests and
// benchmarks.
func Sort(xs []float64) { sortFloats(xs) }
