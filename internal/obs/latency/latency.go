// Package latency turns a frame-lineage flight recording (package
// trace) into latency attribution: a per-frame critical-path
// decomposition into pipeline stages, stage-level percentile
// summaries, the top-K slowest frames with their event timelines, and
// a degraded-interval report reconstructed from the fault events.
//
// The decomposition is exact by construction: a frame's lifetime is
// partitioned into consecutive inter-event intervals, each attributed
// to the stage the frame was in, so the summed stages telescope back
// to the end-to-end latency (to float64 rounding, well under 1e-9 s).
package latency

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sudc/internal/obs/trace"
)

// Stage is one segment of a frame's critical path.
type Stage int

const (
	// StageQueue is time spent waiting in a queue: behind other frames
	// in the ISL queue, or in the input queue waiting for a batch slot.
	StageQueue Stage = iota
	// StageTransfer is time actively crossing the ISL, including
	// partial transfers aborted by an outage.
	StageTransfer
	// StageRetryBackoff is time waiting out ISL retry backoff windows.
	StageRetryBackoff
	// StageCompute is time dispatched to a worker, including SEFI
	// stalls and service stranded by a node death.
	StageCompute
	// StageDownlinkWait is time between compute completion and the
	// insight downlink (zero in the current pipeline model, where the
	// analyzer downlinks at batch completion).
	StageDownlinkWait

	NumStages
)

var stageNames = [NumStages]string{
	StageQueue:        "queue",
	StageTransfer:     "transfer",
	StageRetryBackoff: "retry-backoff",
	StageCompute:      "compute",
	StageDownlinkWait: "downlink-wait",
}

// String returns the stage's display name.
func (s Stage) String() string {
	if s >= 0 && s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Frame is one frame's reconstructed lineage.
type Frame struct {
	// ID is the stable frame ID; Scope the recorder scope ("" = root).
	ID    int64
	Scope string
	// Captured and Done bound the frame's observed lifetime (Done is
	// the terminal event for completed/shed/lost frames, the last seen
	// event otherwise).
	Captured, Done float64
	// Stages is the critical-path decomposition; the entries sum to
	// Done-Captured exactly (to float64 rounding).
	Stages [NumStages]float64
	// Outcome is "downlinked", "processed", "shed", "lost", or
	// "in-flight".
	Outcome string
	// Tier is the compute tier the placement engine routed the frame to
	// ("onboard", "space", "ground-edge", "cloud"); empty when the run
	// had no placement engine.
	Tier string
	// Causes lists the distinct fault windows that stalled the frame
	// (from retry/loss attribution, node-death re-enqueues, and SEFI
	// windows overlapping its compute), sorted.
	Causes []string
	// Events is the frame's own event timeline, in record order.
	Events []trace.Event
}

// Total is the frame's observed end-to-end latency.
func (f Frame) Total() float64 { return f.Done - f.Captured }

// SumStages is the summed stage decomposition — equal to Total to
// float64 rounding for every frame.
func (f Frame) SumStages() float64 {
	var s float64
	for _, v := range f.Stages {
		s += v
	}
	return s
}

// Completed reports whether the frame finished compute.
func (f Frame) Completed() bool {
	return f.Outcome == "processed" || f.Outcome == "downlinked"
}

// sefiWindow is one reconstructed SEFI hang on one node.
type sefiWindow struct {
	node       int
	start, end float64
}

// DecomposeAll reconstructs lineages across the recorder's root scope
// and every child scope, ordered by (scope, frame ID). It reads each
// scope's log in place (trace.Recorder.Each) and copies only the
// frames' own events, into their timelines.
func DecomposeAll(rec *trace.Recorder) []Frame {
	if rec == nil {
		return nil
	}
	out := decompose("", rec)
	for _, name := range rec.Scopes() {
		out = append(out, decomposeAllScoped(rec.Child(name), name)...)
	}
	return out
}

// decomposeAllScoped is DecomposeAll with scope names prefixed by the
// given path — the recursion behind child scopes.
func decomposeAllScoped(rec *trace.Recorder, prefix string) []Frame {
	out := decompose(prefix, rec)
	for _, name := range rec.Scopes() {
		out = append(out, decomposeAllScoped(rec.Child(name), prefix+"/"+name)...)
	}
	return out
}

// decompose reconstructs the lineages of one scope's events in two
// passes over its log. The second pass stops at the events the first
// one saw, so events recorded in between cannot reach it.
func decompose(scope string, rec *trace.Recorder) []Frame {
	// Pass 1 lists the frames in first-seen order with their first
	// timestamp and event count, so the frames are allocated at their
	// final size and every frame's timeline is carved out of one array.
	type firstSeen struct {
		id    int64
		first float64
		n     int // the frame's event count
	}
	var (
		index = map[int64]int{} // frame ID -> position in frames
		seen  []firstSeen
		total int // frame events
		read  int // events of the scope, frame-less ones included
	)
	rec.Each(func(e *trace.Event) {
		read++
		if e.Frame == 0 {
			return
		}
		i, ok := index[e.Frame]
		if !ok {
			i = len(seen)
			index[e.Frame] = i
			seen = append(seen, firstSeen{id: e.Frame, first: e.T})
		}
		seen[i].n++
		total++
	})
	if len(seen) == 0 {
		return nil
	}
	type fstate struct {
		stage Stage
		last  float64
		open  bool // between capture and terminal event
		node  int  // current worker while computing
	}
	frames := make([]Frame, len(seen))
	states := make([]fstate, len(seen))
	// Full slice expressions cap each timeline at its own events, so a
	// caller appending to one frame's Events cannot reach its neighbour.
	backing := make([]trace.Event, total)
	off := 0
	for i, fs := range seen {
		frames[i] = Frame{ID: fs.id, Scope: scope, Captured: fs.first, Outcome: "in-flight",
			Events: backing[off : off : off+fs.n]}
		states[i].node = -1
		off += fs.n
	}
	var sefis []sefiWindow
	rec.Each(func(e *trace.Event) {
		if read == 0 {
			return
		}
		read--
		// Reconstruct SEFI windows for compute-stall attribution.
		if e.Kind == trace.SEFIStart {
			sefis = append(sefis, sefiWindow{node: e.Node, start: e.T, end: e.T + e.Dur})
		}
		if e.Frame == 0 {
			return
		}
		i := index[e.Frame]
		f, st := &frames[i], &states[i]
		f.Events = append(f.Events, *e)
		if e.Kind == trace.FrameCaptured {
			st.open, st.last, st.stage = true, e.T, StageQueue
			f.Captured = e.T
			return
		}
		if st.open {
			// Close the interval since the previous event under the
			// stage the frame was in, then transition.
			f.Stages[st.stage] += e.T - st.last
			if st.stage == StageCompute && st.node >= 0 {
				attributeSEFI(f, sefis, st.node, st.last, e.T)
			}
			st.last = e.T
		}
		switch e.Kind {
		case trace.ISLSendStart:
			st.stage = StageTransfer
		case trace.ISLSendEnd:
			st.stage = StageQueue
			if e.Cause != "" {
				addCause(f, e.Cause)
			}
		case trace.Retry:
			st.stage = StageRetryBackoff
			addCause(f, e.Cause)
		case trace.Enqueued:
			st.stage = StageQueue
			st.node = -1
			if e.Cause != "" {
				addCause(f, e.Cause)
			}
		case trace.Dispatched:
			st.stage = StageCompute
			st.node = e.Node
		case trace.ComputeEnd:
			st.stage = StageDownlinkWait
			st.node = -1
			f.Outcome = "processed"
			f.Done = e.T
		case trace.Downlinked:
			f.Outcome = "downlinked"
			f.Done = e.T
			st.open = false
		case trace.Shed:
			f.Outcome = "shed"
			f.Done = e.T
			st.open = false
		case trace.Lost:
			f.Outcome = "lost"
			f.Done = e.T
			st.open = false
			addCause(f, e.Cause)
		case trace.Placed:
			f.Tier = e.Tier
		}
		if f.Done < e.T {
			f.Done = e.T
		}
	})
	sort.Slice(frames, func(i, j int) bool { return frames[i].ID < frames[j].ID })
	return frames
}

// addCause records a distinct, sorted fault cause on the frame.
func addCause(f *Frame, cause string) {
	if cause == "" {
		return
	}
	i := sort.SearchStrings(f.Causes, cause)
	if i < len(f.Causes) && f.Causes[i] == cause {
		return
	}
	f.Causes = append(f.Causes, "")
	copy(f.Causes[i+1:], f.Causes[i:])
	f.Causes[i] = cause
}

// attributeSEFI adds "sefi#<node>" for SEFI windows on the frame's
// worker overlapping its compute interval.
func attributeSEFI(f *Frame, sefis []sefiWindow, node int, from, to float64) {
	for _, w := range sefis {
		if w.node == node && w.start < to && w.end > from {
			addCause(f, fmt.Sprintf("sefi#%d", node))
		}
	}
}

// StageSummary is one stage's distribution across a frame set.
type StageSummary struct {
	Stage                    Stage
	Mean, P50, P95, P99, Max float64
	// Share is this stage's fraction of the summed end-to-end latency.
	Share float64
}

// Summarize computes per-stage distributions over the completed frames
// of the set, in stage order, with an extra end-to-end pseudo-stage
// (Stage == NumStages) last.
func Summarize(frames []Frame) []StageSummary {
	samples := make([][]float64, NumStages+1)
	var grand float64
	for _, f := range frames {
		if !f.Completed() {
			continue
		}
		for s := Stage(0); s < NumStages; s++ {
			samples[s] = append(samples[s], f.Stages[s])
		}
		samples[NumStages] = append(samples[NumStages], f.Total())
		grand += f.Total()
	}
	out := make([]StageSummary, 0, NumStages+1)
	for s := Stage(0); s <= NumStages; s++ {
		v := samples[s]
		sortFloats(v)
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		sm := StageSummary{Stage: s}
		if n := len(v); n > 0 {
			sm.Mean = sum / float64(n)
			sm.P50 = Quantile(v, 0.50)
			sm.P95 = Quantile(v, 0.95)
			sm.P99 = Quantile(v, 0.99)
			sm.Max = v[n-1]
		}
		if grand > 0 {
			sm.Share = sum / grand
			if s == NumStages {
				// The pseudo-stage is the whole: exactly 1 by definition
				// (summation order otherwise leaves ±1 ulp of noise).
				sm.Share = 1
			}
		}
		out = append(out, sm)
	}
	return out
}

// Quantile returns the q-th quantile of an ascending-sorted sample via
// linear interpolation between order statistics; NaN for q outside
// [0,1] or an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// TopK returns the k slowest frames by end-to-end latency (completed
// or not), ties broken by (scope, ID) for determinism.
func TopK(frames []Frame, k int) []Frame {
	sorted := append([]Frame(nil), frames...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Total() != sorted[j].Total() {
			return sorted[i].Total() > sorted[j].Total()
		}
		if sorted[i].Scope != sorted[j].Scope {
			return sorted[i].Scope < sorted[j].Scope
		}
		return sorted[i].ID < sorted[j].ID
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	if k < 0 {
		k = 0
	}
	return sorted[:k]
}

// Interval is one degraded-operation window reconstructed from the
// fault events of a single scope.
type Interval struct {
	// Start and End bound the window (End clipped to the horizon; a
	// node death extends to the horizon).
	Start, End float64
	// Kind is "isl-outage", "sefi", "node-death", "throttle", or
	// "brownout"; Node the affected worker (-1 for ISL outages and the
	// fleet-wide degradation windows); Cause the window's attribution
	// tag.
	Kind  string
	Node  int
	Cause string
}

// Duration is the window length.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// Environment reports whether events of kind k change the service
// environment: the frame-less fault and degradation events, the only
// ones DegradedIntervals and AvailabilityFromTrace read.
func Environment(k trace.Kind) bool {
	switch k {
	case trace.NodeDeath, trace.SEFIStart, trace.SEFIEnd, trace.OutageStart, trace.OutageEnd,
		trace.Throttle, trace.BrownoutStart, trace.BrownoutEnd:
		return true
	}
	return false
}

// DegradedIntervals reconstructs the fault windows of one scope's
// events, sorted by start time. horizon clips open-ended windows. The
// frames a window stalled are those of the scope's decomposition whose
// Causes name the window's Cause.
func DegradedIntervals(events []trace.Event, horizon float64) []Interval {
	var out []Interval
	open := map[string]int{} // outage cause -> index in out
	brownIdx := -1           // open brownout window (at most one fleet-wide)
	for _, e := range events {
		switch e.Kind {
		case trace.OutageStart:
			end := e.T + e.Dur
			if end > horizon {
				end = horizon
			}
			out = append(out, Interval{Start: e.T, End: end, Kind: "isl-outage",
				Node: -1, Cause: e.Cause})
			open[e.Cause] = len(out) - 1
		case trace.OutageEnd:
			if i, ok := open[e.Cause]; ok {
				out[i].End = e.T
				delete(open, e.Cause)
			}
		case trace.SEFIStart:
			end := e.T + e.Dur
			if end > horizon {
				end = horizon
			}
			out = append(out, Interval{Start: e.T, End: end, Kind: "sefi",
				Node: e.Node, Cause: fmt.Sprintf("sefi#%d", e.Node)})
		case trace.NodeDeath:
			out = append(out, Interval{Start: e.T, End: horizon, Kind: "node-death",
				Node: e.Node, Cause: fmt.Sprintf("node-death#%d", e.Node)})
		case trace.Throttle:
			if e.Mult >= 1 {
				break
			}
			end := e.T + e.Dur
			if end > horizon {
				end = horizon
			}
			out = append(out, Interval{Start: e.T, End: end, Kind: "throttle",
				Node: -1, Cause: fmt.Sprintf("throttle×%.2f", e.Mult)})
		case trace.BrownoutStart:
			end := e.T + e.Dur
			if end > horizon {
				end = horizon
			}
			out = append(out, Interval{Start: e.T, End: end, Kind: "brownout",
				Node: -1, Cause: e.Cause})
			brownIdx = len(out) - 1
		case trace.BrownoutEnd:
			if brownIdx >= 0 {
				out[brownIdx].End = e.T
				brownIdx = -1
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// AvailabilityFromTrace recomputes the DES time-averaged availability
// of one scope from its fault events alone: the fraction of [0,
// horizon] with at least `need` of `workers` nodes neither dead nor
// hung. It must agree with netsim's Stats.Availability for the same
// run — the EXPERIMENTS.md E7 cross-check.
func AvailabilityFromTrace(events []trace.Event, workers, need int, horizon float64) float64 {
	if horizon <= 0 || workers <= 0 {
		return math.NaN()
	}
	type edge struct {
		t     float64
		delta int
	}
	var edges []edge
	for _, e := range events {
		switch e.Kind {
		case trace.NodeDeath:
			edges = append(edges, edge{e.T, -1})
		case trace.SEFIStart:
			edges = append(edges, edge{e.T, -1})
		case trace.SEFIEnd:
			edges = append(edges, edge{e.T, +1})
		case trace.BrownoutStart:
			edges = append(edges, edge{e.T, -e.N})
		case trace.BrownoutEnd:
			edges = append(edges, edge{e.T, +e.N})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	up, last, effective := 0.0, 0.0, workers
	for _, ed := range edges {
		if ed.t > horizon {
			break
		}
		if effective >= need && ed.t > last {
			up += ed.t - last
		}
		last = ed.t
		effective += ed.delta
	}
	if effective >= need && horizon > last {
		up += horizon - last
	}
	return up / horizon
}

// FormatCauses renders a frame's cause list for display.
func FormatCauses(causes []string) string {
	if len(causes) == 0 {
		return "-"
	}
	return strings.Join(causes, ",")
}
