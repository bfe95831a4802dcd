package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SnapshotOption customizes Snapshot.
type SnapshotOption func(*snapshotOptions)

type snapshotOptions struct {
	wall bool
}

// WithWall includes wall-clock span durations in the snapshot. Wall
// times vary run to run, so snapshots taken with this option are not
// suitable for golden comparisons.
func WithWall() SnapshotOption {
	return func(o *snapshotOptions) { o.wall = true }
}

// Snapshot is a point-in-time copy of a registry, with every section
// sorted by name so identical metric state renders to identical bytes.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
	Series     []SeriesValue    `json:"series,omitempty"`
	Spans      []SpanValue      `json:"spans,omitempty"`
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BucketValue is one finite histogram bucket: N observations ≤ LE.
type BucketValue struct {
	LE float64 `json:"le"`
	N  int64   `json:"n"`
}

// HistogramValue is one histogram's snapshot. Overflow counts
// observations above the last finite bound (the +Inf bucket, kept out
// of Buckets so the JSON encoding stays finite). P50/P95/P99 are
// quantile estimates interpolated within the buckets.
type HistogramValue struct {
	Name     string        `json:"name"`
	Count    int64         `json:"count"`
	Sum      float64       `json:"sum"`
	Min      float64       `json:"min"`
	Max      float64       `json:"max"`
	P50      float64       `json:"p50"`
	P95      float64       `json:"p95"`
	P99      float64       `json:"p99"`
	Buckets  []BucketValue `json:"buckets,omitempty"`
	Overflow int64         `json:"overflow"`
}

// SeriesValue is one time series' snapshot.
type SeriesValue struct {
	Name   string  `json:"name"`
	Points []Point `json:"points,omitempty"`
}

// SpanValue is one span name's aggregate.
type SpanValue struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	SimS  float64 `json:"sim_s"`
	// WallMS is populated only under WithWall.
	WallMS float64 `json:"wall_ms,omitempty"`
}

// Snapshot copies the registry's current state. The whole-store view is
// returned regardless of the handle's scope prefix.
func (r *Registry) Snapshot(opts ...SnapshotOption) Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var o snapshotOptions
	for _, opt := range opts {
		opt(&o)
	}
	st := r.st
	st.mu.Lock()
	defer st.mu.Unlock()
	var s Snapshot
	for name, c := range st.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range st.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range st.hists {
		h.mu.Lock()
		hv := HistogramValue{Name: name, Count: h.count, Sum: h.sum}
		if h.count > 0 {
			hv.Min, hv.Max = h.min, h.max
			hv.P50 = h.quantileLocked(0.50)
			hv.P95 = h.quantileLocked(0.95)
			hv.P99 = h.quantileLocked(0.99)
		}
		for i, b := range h.bounds {
			hv.Buckets = append(hv.Buckets, BucketValue{LE: b, N: h.counts[i]})
		}
		hv.Overflow = h.counts[len(h.bounds)]
		h.mu.Unlock()
		s.Histograms = append(s.Histograms, hv)
	}
	for name, ts := range st.series {
		ts.mu.Lock()
		s.Series = append(s.Series, SeriesValue{Name: name, Points: append([]Point(nil), ts.pts...)})
		ts.mu.Unlock()
	}
	for name, sp := range st.spans {
		sv := SpanValue{Name: name, Count: sp.count, SimS: sp.sim}
		if o.wall {
			sv.WallMS = float64(sp.wall) / float64(time.Millisecond)
		}
		s.Spans = append(s.Spans, sv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	sort.Slice(s.Series, func(i, j int) bool { return s.Series[i].Name < s.Series[j].Name })
	sort.Slice(s.Spans, func(i, j int) bool { return s.Spans[i].Name < s.Spans[j].Name })
	return s
}

// g formats a float at full round-trip precision.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// String renders the snapshot as line-oriented text: one metric per
// line, sections in a fixed order, names sorted — deterministic for
// deterministic metric state.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "counter %s %d\n", c.Name, c.Value)
	}
	for _, gv := range s.Gauges {
		fmt.Fprintf(&b, "gauge %s %s\n", gv.Name, g(gv.Value))
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "histogram %s count=%d sum=%s min=%s max=%s p50=%s p95=%s p99=%s",
			h.Name, h.Count, g(h.Sum), g(h.Min), g(h.Max), g(h.P50), g(h.P95), g(h.P99))
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, " le%s=%d", g(bk.LE), bk.N)
		}
		fmt.Fprintf(&b, " le+Inf=%d\n", h.Overflow)
	}
	for _, ts := range s.Series {
		fmt.Fprintf(&b, "series %s n=%d:", ts.Name, len(ts.Points))
		for _, p := range ts.Points {
			fmt.Fprintf(&b, " %s:%s", g(p.T), g(p.V))
		}
		b.WriteByte('\n')
	}
	for _, sp := range s.Spans {
		fmt.Fprintf(&b, "span %s count=%d sim_s=%s", sp.Name, sp.Count, g(sp.SimS))
		if sp.WallMS != 0 {
			fmt.Fprintf(&b, " wall_ms=%.3f", sp.WallMS)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
