package latency

import "sudc/internal/obs/trace"

// Decompose reconstructs per-frame lineages from one scope's events (in
// record order), for the external tests. Frames are returned in
// ascending ID order.
func Decompose(events []trace.Event) []Frame {
	return decompose("", events)
}
