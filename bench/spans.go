package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded around public calls only; nothing inside the simulator is
// instrumented.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a top-level span
	Op       int    `json:"op"`     // 0 is set-up and the warm-up op
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	AllocB   uint64 `json:"alloc_bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. The benchmark calls
// layers from one goroutine, so spans nest without overlapping. A nil
// tracer records nothing.
type tracer struct {
	workload string
	op       int
	t0       time.Time
	spans    []span
	open     []int // indices into spans of the spans still running
	alloc    []metrics.Sample
}

func newTracer(workload string) *tracer {
	return &tracer{
		workload: workload,
		t0:       time.Now(),
		alloc:    []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// begin opens a span named after the layer call it wraps and returns
// the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{
		ID: i + 1, Parent: parent, Op: t.op, Workload: t.workload, Name: name,
		AllocB: t.allocated(),
	})
	t.open = append(t.open, i)
	t.spans[i].StartNS = int64(time.Since(t.t0))
	return func() {
		s := &t.spans[i]
		s.EndNS = int64(time.Since(t.t0))
		s.AllocB = t.allocated() - s.AllocB
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes sums, per span name, each span's duration minus the time
// its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += s.dur() - child[s.ID]
	}
	return self
}

// spanStats returns the per-op median duration (ms) and allocation of
// the named spans recorded during timed ops.
func spanStats(spans []span, name string) (durMS, allocB float64) {
	var d, a []float64
	for _, s := range spans {
		if s.Name == name && s.Op > 0 {
			d = append(d, ms(s.dur()))
			a = append(a, float64(s.AllocB))
		}
	}
	return median(d), median(a)
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
