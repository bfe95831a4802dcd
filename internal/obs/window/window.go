// Package window provides watermark-correct windowed aggregation for
// the DES: tumbling sim-time windows of event counters, environment
// occupancy (eclipse, throttle, brownout, ISL outage, up-time), and
// fixed-bucket latency quantiles.
//
// Each topology cell owns a Collector that integrates occupancy along
// its own event stream and closes a Fragment per window it crosses.
// Fragments are merged into per-window aggregates by a Merger; the
// shard runner drains every cell's collector at the conservative
// cross-cell watermark (the minimum next event time across cells and
// in-flight messages), where every cell's environment is known to be
// constant, so the merged stream is byte-identical for any shard or
// worker count. Merge canonicalizes fragment order by (window index,
// cell), so batch merging is order-independent too — FuzzWindowMerge
// pins that property.
package window

import (
	"math"
	"sort"
)

// LatencyBounds are the fixed latency bucket upper bounds in seconds.
// netsim's end-of-run latency_s histogram uses the same table, so
// windowed quantiles agree with the snapshot. The last bucket is the
// overflow above the final bound.
var LatencyBounds = [...]float64{1, 2, 5, 10, 30, 60, 120, 300, 600, 1800, 3600}

// NumLatBuckets counts the latency buckets including the overflow.
const NumLatBuckets = len(LatencyBounds) + 1

// MaxWindows bounds the windows one stream may cut its horizon into; a
// year of 10-minute windows is 52,560. At the bound the merged stream
// of 296-byte Windows takes about 19 MB, and a consumer that keeps its
// own copy, such as an OnWindow slice, takes as much again.
const MaxWindows = 1 << 16

// Counter enumerates the per-window event counters.
type Counter int

const (
	CntGenerated Counter = iota
	CntProcessed
	CntInsights
	CntRetried
	CntRedispatched
	CntShed
	CntLost
	CntDeferred
	CntSpilled
	NumCounters
)

var counterNames = [NumCounters]string{
	"generated", "processed", "insights", "retried", "redispatched",
	"shed", "lost", "deferred", "spilled",
}

func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return "unknown"
	}
	return counterNames[c]
}

// Env is the environment a collector integrates between events. It is
// sampled by the simulator before each Advance and must stay constant
// over the advanced span — the watermark rule guarantees exactly that.
type Env struct {
	// Up reports full service (effective workers >= needed).
	Up bool
	// Weight is the cell's availability weight (its worker complement).
	Weight float64
	// Eclipse, Throttled, Browned report the degradation phase.
	Eclipse, Throttled, Browned bool
	// DownLinks counts ISL edges currently in outage.
	DownLinks int
}

// Agg is one window's aggregate: counters, a fixed-bucket latency
// histogram, the placement cost sum, and occupancy integrals in
// seconds. All fields fold additively except the latency extrema.
type Agg struct {
	Counts [NumCounters]int64
	// Lat is the latency histogram over LatencyBounds plus overflow.
	Lat      [NumLatBuckets]int64
	LatCount int64
	LatSum   float64
	LatMin   float64
	LatMax   float64
	// CostSum accumulates realized placement cost ($ + weighted
	// latency) over processed frames, zero when placement is off.
	CostSum float64
	// Occupancy integrals: seconds of the window spent in each
	// environment condition. OutageSec weights by concurrently-down
	// links; UpSec and WeightSec weight by Env.Weight so
	// Availability() matches the DES definition.
	EclipseSec  float64
	ThrottleSec float64
	BrownoutSec float64
	OutageSec   float64
	UpSec       float64
	WeightSec   float64
	// Sec is the covered span in seconds (the window width except for
	// a trailing partial window).
	Sec float64
}

// Availability is the weighted fraction of the window at full service.
func (a *Agg) Availability() float64 {
	if a.WeightSec == 0 {
		return 1
	}
	return a.UpSec / a.WeightSec
}

// LossRate is the fraction of generated frames shed or lost.
func (a *Agg) LossRate() float64 {
	if a.Counts[CntGenerated] == 0 {
		return 0
	}
	return float64(a.Counts[CntShed]+a.Counts[CntLost]) / float64(a.Counts[CntGenerated])
}

// CostPerFrame is the realized placement cost per processed frame.
func (a *Agg) CostPerFrame() float64 {
	if a.Counts[CntProcessed] == 0 {
		return 0
	}
	return a.CostSum / float64(a.Counts[CntProcessed])
}

// bucketBounds returns bucket i's span clamped to the observed extrema,
// mirroring the obs histogram quantile so estimates stay in range.
func (a *Agg) bucketBounds(i int) (lo, hi float64) {
	if i > 0 {
		lo = LatencyBounds[i-1]
	}
	if i < len(LatencyBounds) {
		hi = LatencyBounds[i]
	} else {
		hi = a.LatMax
	}
	if a.LatMin > lo {
		lo = a.LatMin
	}
	if a.LatMax < hi {
		hi = a.LatMax
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// LatQuantile estimates the q-quantile of the window's latencies by
// linear interpolation within the straddling bucket.
func (a *Agg) LatQuantile(q float64) float64 {
	if a.LatCount == 0 {
		return 0
	}
	if q <= 0 {
		return a.LatMin
	}
	if q >= 1 {
		return a.LatMax
	}
	rank := q * float64(a.LatCount)
	var cum float64
	for i, n := range a.Lat {
		if n == 0 {
			continue
		}
		fn := float64(n)
		if cum+fn < rank {
			cum += fn
			continue
		}
		lo, hi := a.bucketBounds(i)
		return lo + (rank-cum)/fn*(hi-lo)
	}
	return a.LatMax
}

// FracOver estimates the fraction of the window's latencies above lim
// seconds. Exact when lim is a bucket bound; linearly interpolated
// within the straddling bucket otherwise.
func (a *Agg) FracOver(lim float64) float64 {
	if a.LatCount == 0 {
		return 0
	}
	var cum float64
	for i, n := range a.Lat {
		lo, hi := a.bucketBounds(i)
		if lim >= hi {
			cum += float64(n)
			continue
		}
		if lim > lo && hi > lo {
			cum += float64(n) * (lim - lo) / (hi - lo)
		}
		break
	}
	over := float64(a.LatCount) - cum
	if over < 0 {
		over = 0
	}
	return over / float64(a.LatCount)
}

// Fragment is one cell's contribution to one window.
type Fragment struct {
	// Cell is the contributing topology cell (0 for one-cell runs).
	Cell int
	// Index is the window ordinal: window i covers
	// [i*width, (i+1)*width) in sim seconds.
	Index int
	Agg
}

func newFragment(cell, index int) Fragment {
	f := Fragment{Cell: cell, Index: index}
	f.LatMin = math.Inf(1)
	f.LatMax = math.Inf(-1)
	return f
}

// Window is a merged per-window aggregate across cells.
type Window struct {
	Index int
	// Start and End bound the covered span in sim seconds; End is
	// clipped for a trailing partial window.
	Start, End float64
	// Cells counts contributing fragments.
	Cells int
	Agg
}

// fold adds one fragment into the window. Callers must fold fragments
// of equal Index in ascending Cell order for byte-identical floats.
func (w *Window) fold(width float64, f *Fragment) {
	if w.Cells == 0 {
		w.Index = f.Index
		w.Start = float64(f.Index) * width
		w.End = w.Start + f.Sec
	}
	w.Cells++
	for i := range w.Counts {
		w.Counts[i] += f.Counts[i]
	}
	for i := range w.Lat {
		w.Lat[i] += f.Lat[i]
	}
	if f.LatCount > 0 {
		if w.LatCount == 0 || f.LatMin < w.LatMin {
			w.LatMin = f.LatMin
		}
		if w.LatCount == 0 || f.LatMax > w.LatMax {
			w.LatMax = f.LatMax
		}
	}
	w.LatCount += f.LatCount
	w.LatSum += f.LatSum
	w.CostSum += f.CostSum
	w.EclipseSec += f.EclipseSec
	w.ThrottleSec += f.ThrottleSec
	w.BrownoutSec += f.BrownoutSec
	w.OutageSec += f.OutageSec
	w.UpSec += f.UpSec
	w.WeightSec += f.WeightSec
	w.Sec += f.Sec
}

// Collector accumulates one cell's fragments. A nil Collector is a
// no-op on every method, so the DES hot path pays one nil check when
// windowing is off.
type Collector struct {
	width float64
	cell  int
	lastT float64
	cur   Fragment
	out   []Fragment
}

// NewCollector makes a collector for one cell with the given window
// width in sim seconds (must be positive).
func NewCollector(width float64, cell int) *Collector {
	return &Collector{width: width, cell: cell, cur: newFragment(cell, 0)}
}

// Advance integrates env occupancy from the last advanced time to t,
// closing every window boundary crossed, and returns the fragments it
// closed: a view of the buffer, valid until the next Drain. env must
// be the cell's state over the whole span — callers advance at event
// times (state constant since the previous event) and at the
// cross-cell watermark (state constant up to it by the
// conservative-lookahead bound).
func (c *Collector) Advance(t float64, env Env) []Fragment {
	if c == nil || t <= c.lastT {
		return nil
	}
	n := len(c.out)
	for {
		end := float64(c.cur.Index+1) * c.width
		if t < end {
			c.integrate(t-c.lastT, &env)
			c.lastT = t
			return c.out[n:]
		}
		c.integrate(end-c.lastT, &env)
		c.lastT = end
		c.out = append(c.out, c.cur)
		c.cur = newFragment(c.cell, c.cur.Index+1)
	}
}

// integrate adds dt seconds of env to the current window. env is a
// pointer because copying Advance's spilled argument by value stalled
// on store forwarding and doubled the cost of every Advance.
func (c *Collector) integrate(dt float64, env *Env) {
	if dt <= 0 {
		return
	}
	a := &c.cur.Agg
	a.Sec += dt
	a.WeightSec += dt * env.Weight
	if env.Up {
		a.UpSec += dt * env.Weight
	}
	if env.Eclipse {
		a.EclipseSec += dt
	}
	if env.Throttled {
		a.ThrottleSec += dt
	}
	if env.Browned {
		a.BrownoutSec += dt
	}
	if env.DownLinks > 0 {
		a.OutageSec += dt * float64(env.DownLinks)
	}
}

// Count adds n to counter k in the current window.
func (c *Collector) Count(k Counter, n int64) {
	if c == nil {
		return
	}
	c.cur.Counts[k] += n
}

// Latency records one end-to-end frame latency in seconds.
func (c *Collector) Latency(v float64) {
	if c == nil {
		return
	}
	a := &c.cur.Agg
	i := 0
	for i < len(LatencyBounds) && v > LatencyBounds[i] {
		i++
	}
	a.Lat[i]++
	a.LatCount++
	a.LatSum += v
	if v < a.LatMin {
		a.LatMin = v
	}
	if v > a.LatMax {
		a.LatMax = v
	}
}

// Cost adds one processed frame's realized placement cost.
func (c *Collector) Cost(v float64) {
	if c == nil {
		return
	}
	c.cur.CostSum += v
}

// Close flushes the in-progress window if it covered any span or
// counted any event (a run ending exactly on a boundary leaves an
// empty tail that is dropped).
func (c *Collector) Close() {
	if c == nil {
		return
	}
	if c.cur.Sec > 0 || c.cur.LatCount > 0 || c.cur.Counts != [NumCounters]int64{} {
		c.out = append(c.out, c.cur)
	}
	c.cur = newFragment(c.cell, c.cur.Index+1)
}

// Drain returns the closed fragments and resets the buffer. The
// returned slice is reused by the next Drain, so callers fold it
// before advancing further.
func (c *Collector) Drain() []Fragment {
	if c == nil {
		return nil
	}
	out := c.out
	c.out = c.out[:0]
	return out
}

// Merger folds fragments into per-window aggregates and releases each
// window once the watermark passes its end. Within one window,
// fragments must arrive in ascending cell order — the shard runner
// drains cells in cell order at every barrier, which guarantees it.
type Merger struct {
	width float64
	live  func(Window)
	base  int
	wins  []Window
	done  []Window
}

// NewMerger makes a merger for the given window width; live, when
// non-nil, observes each window as it completes.
func NewMerger(width float64, live func(Window)) *Merger {
	return &Merger{width: width, live: live}
}

// Add folds one fragment.
func (m *Merger) Add(f Fragment) {
	if len(m.wins) == 0 {
		m.base = f.Index
	}
	if f.Index < m.base {
		// A fragment for an already-flushed window violates the
		// watermark contract; tolerate it by re-basing (tests and the
		// fuzz target sort first, the runner never triggers this).
		grow := m.base - f.Index
		m.wins = append(make([]Window, grow, grow+len(m.wins)), m.wins...)
		m.base = f.Index
	}
	for f.Index >= m.base+len(m.wins) {
		m.wins = append(m.wins, Window{})
	}
	m.wins[f.Index-m.base].fold(m.width, &f)
}

// Flush completes every pending window whose end is at or before the
// watermark upTo (sim seconds). Windows with no fragments are skipped.
func (m *Merger) Flush(upTo float64) {
	for len(m.wins) > 0 && float64(m.base+1)*m.width <= upTo {
		w := m.wins[0]
		m.wins = m.wins[1:]
		m.base++
		if w.Cells == 0 {
			continue
		}
		m.done = append(m.done, w)
		if m.live != nil {
			m.live(w)
		}
	}
}

// Windows returns every completed window in index order.
func (m *Merger) Windows() []Window {
	return m.done
}

// Merge folds fragments from any source order into completed windows:
// it canonicalizes by (window index, cell) first, so the result is
// byte-identical however the per-cell fragments were interleaved.
func Merge(width float64, frags []Fragment) []Window {
	sorted := append([]Fragment(nil), frags...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Index != sorted[j].Index {
			return sorted[i].Index < sorted[j].Index
		}
		return sorted[i].Cell < sorted[j].Cell
	})
	m := NewMerger(width, nil)
	for _, f := range sorted {
		m.Add(f)
	}
	m.Flush(math.Inf(1))
	return m.Windows()
}
