// Trace-derived windows: rebuild the per-window aggregate stream from
// a saved flight recording, so sudcmon can evaluate SLOs and diff two
// runs without re-running the DES. The reconstruction walks each
// recorder scope as one cell, replays its fault/degradation events as
// environment edges, and feeds frame events through the same
// window.Collector the live DES uses — so counters, latency buckets,
// and occupancy agree with the native stream (pinned by test).
//
// Two fields are unreconstructable from a recording and stay zero:
// deferred-batch counts (no trace event) and placement cost sums (the
// model's $ figures never reach the trace). Eclipse occupancy is
// approximated by brownout occupancy, its service-visible footprint.

package slo

import (
	"sort"

	"sudc/internal/obs/latency"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
)

// envEdge is one environment change replayed between counting events.
type envEdge struct {
	t float64
	// deltas applied at t
	throttle, brown, outage, effective int
}

// WindowsFromTrace rebuilds the merged window stream of a recording:
// width is the window size in sim seconds, horizon the run length
// (clips open-ended fault windows), and workers/need the per-scope
// complement for the availability occupancy (workers ≤ 0 disables it,
// leaving per-window availability at 1).
//
// It reads every scope's log in place (trace.Recorder.Each), twice: a
// first pass notes each scope's frame capture times and copies out its
// few environment events; the second replays the scope into windows.
// A frame's latency runs from its capture in its own scope or, failing
// that, in a sibling scope: the cells of one sharded run are siblings,
// while each replica of a RunReplicas recording captures and computes
// its frames, whose IDs repeat across replicas, in its own scope.
func WindowsFromTrace(rec *trace.Recorder, width, horizon float64, workers, need int) []window.Window {
	if rec == nil || width <= 0 {
		return nil
	}
	var scopes []*traceScope
	var walk func(r *trace.Recorder, parent *traceScope)
	walk = func(r *trace.Recorder, parent *traceScope) {
		s := &traceScope{rec: r, parent: parent, born: map[int64]float64{}}
		r.Each(func(e *trace.Event) {
			s.n++
			switch {
			case e.Kind == trace.SpanDone || e.Kind == trace.SLOAlert:
				// Derived events: a scope holding only these is no cell.
				return
			case e.Kind == trace.FrameCaptured:
				s.born[e.Frame] = e.T
			case latency.Environment(e.Kind):
				s.env = append(s.env, *e)
			}
			s.cell = true
		})
		scopes = append(scopes, s)
		if parent != nil {
			parent.children = append(parent.children, s)
		}
		for _, name := range r.Scopes() {
			walk(r.Child(name), s)
		}
	}
	walk(rec, nil)

	var frags []window.Fragment
	cell := 0
	for _, s := range scopes {
		if s.cell {
			frags = append(frags, scopeFragments(s, cell, width, horizon, workers, need)...)
			cell++
		}
	}
	return window.Merge(width, frags)
}

// traceScope is what the first pass of WindowsFromTrace keeps of one
// recorder scope.
type traceScope struct {
	rec      *trace.Recorder
	parent   *traceScope       // nil for the root
	children []*traceScope     // in name order
	born     map[int64]float64 // capture time of each frame captured here
	kidsBorn map[int64]float64 // the children's captures, built on first use
	env      []trace.Event     // environment events, in record order
	n        int               // events read: the replay stops there
	cell     bool              // holds simulation events
}

// birth returns the capture time of a frame computed in scope s: from s
// itself, else from the first sibling scope, in name order, that
// captured it.
func (s *traceScope) birth(frame int64) (float64, bool) {
	if t, ok := s.born[frame]; ok || s.parent == nil {
		return t, ok
	}
	p := s.parent
	if p.kidsBorn == nil {
		p.kidsBorn = map[int64]float64{}
		for _, sib := range p.children {
			for id, t := range sib.born {
				if _, dup := p.kidsBorn[id]; !dup {
					p.kidsBorn[id] = t
				}
			}
		}
	}
	t, ok := p.kidsBorn[frame]
	return t, ok
}

// scopeFragments replays one scope into per-window fragments.
func scopeFragments(s *traceScope, cell int, width, horizon float64, workers, need int) []window.Fragment {
	edges := scopeEdges(s.env, horizon)
	col := window.NewCollector(width, cell)
	var (
		throttled, browned, outages int
		effective                   = workers
		ei                          int
	)
	env := func() window.Env {
		e := window.Env{
			Throttled: throttled > 0,
			Browned:   browned > 0,
			// Eclipse is unrecoverable from the trace; brownout is its
			// service-visible footprint.
			Eclipse:   browned > 0,
			DownLinks: outages,
		}
		if workers > 0 {
			e.Weight = float64(workers)
			e.Up = effective >= need
		}
		return e
	}
	apply := func(upTo float64) {
		for ei < len(edges) && edges[ei].t <= upTo {
			col.Advance(edges[ei].t, env())
			throttled += edges[ei].throttle
			browned += edges[ei].brown
			outages += edges[ei].outage
			effective += edges[ei].effective
			ei++
		}
	}
	left := s.n
	s.rec.Each(func(e *trace.Event) {
		if left == 0 {
			return
		}
		left--
		if e.Kind == trace.SpanDone || e.Kind == trace.SLOAlert {
			return
		}
		apply(e.T)
		col.Advance(e.T, env())
		switch e.Kind {
		case trace.FrameCaptured:
			col.Count(window.CntGenerated, 1)
		case trace.ComputeEnd:
			if e.Frame > 0 {
				col.Count(window.CntProcessed, 1)
				if t, ok := s.birth(e.Frame); ok {
					col.Latency(e.T - t)
				}
			}
		case trace.Downlinked:
			col.Count(window.CntInsights, 1)
		case trace.Retry:
			col.Count(window.CntRetried, 1)
		case trace.Enqueued:
			if e.Cause != "" {
				col.Count(window.CntRedispatched, 1)
			}
		case trace.Shed:
			col.Count(window.CntShed, 1)
		case trace.Lost:
			col.Count(window.CntLost, 1)
		case trace.Placed:
			if e.Cause == "spill" {
				col.Count(window.CntSpilled, 1)
			}
		}
	})
	apply(horizon)
	col.Advance(horizon, env())
	col.Close()
	return append([]window.Fragment(nil), col.Drain()...)
}

// scopeEdges compiles a scope's fault and degradation events into a
// sorted environment-edge timeline. Occupancy intervals come from the
// latency package's reconstruction (clipped ends, throttle phases with
// Mult < 1 only); effective-worker deltas mirror the availability
// cross-check's edge walk.
func scopeEdges(events []trace.Event, horizon float64) []envEdge {
	var edges []envEdge
	for _, iv := range latency.DegradedIntervals(events, horizon) {
		switch iv.Kind {
		case "throttle":
			edges = append(edges, envEdge{t: iv.Start, throttle: 1}, envEdge{t: iv.End, throttle: -1})
		case "brownout":
			edges = append(edges, envEdge{t: iv.Start, brown: 1}, envEdge{t: iv.End, brown: -1})
		case "isl-outage":
			edges = append(edges, envEdge{t: iv.Start, outage: 1}, envEdge{t: iv.End, outage: -1})
		}
	}
	for _, e := range events {
		switch e.Kind {
		case trace.NodeDeath:
			edges = append(edges, envEdge{t: e.T, effective: -1})
		case trace.SEFIStart:
			edges = append(edges, envEdge{t: e.T, effective: -1})
		case trace.SEFIEnd:
			edges = append(edges, envEdge{t: e.T, effective: +1})
		case trace.BrownoutStart:
			edges = append(edges, envEdge{t: e.T, effective: -e.N})
		case trace.BrownoutEnd:
			edges = append(edges, envEdge{t: e.T, effective: +e.N})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	return edges
}
