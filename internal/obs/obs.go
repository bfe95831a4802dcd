// Package obs is the repository's zero-dependency observability layer:
// a Registry of named counters, gauges, fixed-bucket histograms, and
// simulated-time series, plus lightweight span tracing. Every layer of
// the stack — the parallel engine, the discrete-event simulator, the
// DSE, and the experiment runner — records into it instead of ad-hoc
// printf, and the CLIs expose it behind -metrics/-trace flags.
//
// Determinism contract: metrics driven by model state (counters,
// gauges, histograms, and series sampled on the simulated clock) are
// byte-identical in the default Snapshot for any process worker count.
// Wall-clock measurements exist only inside spans and are excluded from
// snapshots unless WithWall is requested, so golden tests can diff
// snapshots directly.
//
// All metric methods are safe for concurrent use, and every method is
// nil-receiver safe: a nil *Registry hands out nil metrics whose
// operations are no-ops, so instrumented code needs no "is observability
// on?" branches.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// state is the shared storage behind one registry and all its scopes.
type state struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	series   map[string]*Series
	spans    map[string]*spanStats
	trace    traceSink
	spanSink SpanSink
}

// Registry is a lightweight handle on a metric store. Scope derives
// handles that share the store under a name prefix, so concurrent
// producers (e.g. simulation replicas) can write disjoint names into
// one snapshot without coordinating.
type Registry struct {
	st     *state
	prefix string
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{st: &state{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		series:   map[string]*Series{},
		spans:    map[string]*spanStats{},
	}}
}

// Scope returns a handle on the same store that prefixes every metric
// name with name + "/". Scoping a nil registry yields nil.
func (r *Registry) Scope(name string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{st: r.st, prefix: r.prefix + name + "/"}
}

// Counter returns the named monotonic counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	c, ok := r.st.counters[name]
	if !ok {
		c = &Counter{}
		r.st.counters[name] = c
	}
	return c
}

// Gauge returns the named last-value gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	g, ok := r.st.gauges[name]
	if !ok {
		g = &Gauge{}
		r.st.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it with
// the given ascending upper bounds on first use (an implicit +Inf
// overflow bucket is always present; no bounds means only the overflow
// bucket). Later callers share the first creation's bounds.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	h, ok := r.st.hists[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1), min: math.Inf(1), max: math.Inf(-1)}
		r.st.hists[name] = h
	}
	return h
}

// Series returns the named time series, creating it on first use.
// Samples are (t, v) pairs; t is by convention the simulated clock, so
// a series is deterministic whenever the simulation is.
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	s, ok := r.st.series[name]
	if !ok {
		s = &Series{}
		r.st.series[name] = s
	}
	return s
}

// Counter is a monotonic event count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins instantaneous measurement.
type Gauge struct {
	set  atomic.Bool
	bits atomic.Uint64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	g.set.Store(true)
}

// Value returns the last value set (0 before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution with count/sum/min/max.
type Histogram struct {
	bounds []float64 // ascending upper bounds; bucket i counts v ≤ bounds[i]
	mu     sync.Mutex
	counts []int64 // len(bounds)+1; last is the +Inf overflow bucket
	count  int64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// quantileLocked estimates the q-th quantile, q in [0, 1], by linear
// interpolation within the bucket holding the target rank, with bucket
// edges clamped to the observed [min, max] so the overflow bucket (and
// a sparse first bucket) interpolate over real mass rather than to
// ±Inf. It returns 0 for an empty histogram. The estimate is
// deterministic: a pure function of the bucket counts and extrema. The
// caller holds h.mu.
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum int64
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := h.min
			if i > 0 && h.bounds[i-1] > lo {
				lo = h.bounds[i-1]
			}
			hi := h.max
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return h.max
}

// Point is one sample of a time series.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Series is an append-only sampled time series.
type Series struct {
	mu  sync.Mutex
	pts []Point
}

// Sample appends one (t, v) point.
func (s *Series) Sample(t, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.pts = append(s.pts, Point{T: t, V: v})
	s.mu.Unlock()
}

// global is the process-wide registry used by layers with no natural
// injection point (the DSE); nil means observability is off.
var global atomic.Pointer[Registry]

// SetGlobal installs (or, with nil, removes) the process-wide registry.
func SetGlobal(r *Registry) {
	if r == nil {
		global.Store(nil)
		return
	}
	global.Store(r)
}

// Global returns the process-wide registry, or nil when unset.
func Global() *Registry { return global.Load() }
