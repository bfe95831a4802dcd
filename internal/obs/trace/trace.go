// Package trace is the frame-lineage flight recorder: a bounded,
// simulated-time-stamped structured event log that captures the causal
// history of every EO frame crossing the Figure 14 pipeline — capture,
// ISL transfer (with retries and backoff), batching, compute, and
// downlink — interleaved with the fault events (node deaths, SEFI
// hangs, ISL outages) that stall them. Where package obs aggregates
// (counters, histograms, series), package trace remembers individual
// frames, so tail latency can be attributed to a specific queue wait,
// retry storm, or fault window after the fact.
//
// Determinism contract: a Recorder's event order is the discrete-event
// simulator's event order, which is a pure function of simulated time
// and the seed — never of the process worker count. Concurrent
// producers (simulation replicas) each record into their own child
// scope (Child), and the exporters walk scopes in sorted name order, so
// the JSONL and Chrome exports are byte-identical for any worker count.
//
// Two exporters are provided: WriteJSONL (one JSON object per line,
// round-trippable via DecodeJSONL) and WriteChrome (Chrome trace-event
// JSON loadable in Perfetto or chrome://tracing, with frames as flow
// events and the ISL and each worker as tracks).
//
// Every method is nil-receiver safe: a nil *Recorder swallows events,
// so instrumented code needs no "is tracing on?" branches.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Kind identifies one event type in the frame-lifecycle taxonomy.
type Kind uint8

// Frame-lifecycle events (Frame > 0) and fault events (Frame == 0)
// forwarded from the internal/faults schedule replay.
const (
	// FrameCaptured: a satellite (Node) finished capturing the frame;
	// it joins the ISL queue.
	FrameCaptured Kind = iota
	// Enqueued: the frame landed in the SµDC input queue. A non-empty
	// Cause ("node-death#w") marks a re-enqueue after its worker died.
	Enqueued
	// Dispatched: the frame left the input queue inside a batch bound
	// for worker Node.
	Dispatched
	// ISLSendStart: the frame started crossing the inter-satellite link.
	ISLSendStart
	// ISLSendEnd: the transfer ended. A non-empty Cause marks an abort
	// (the outage window that killed the transfer); otherwise the frame
	// arrived.
	ISLSendEnd
	// Retry: a transmission attempt failed (Attempt so far) and the
	// frame waits Backoff seconds before retrying. Cause names the
	// outage window responsible.
	Retry
	// Shed: load shedding dropped the frame from the input queue.
	Shed
	// ComputeStart: worker Node started a batch of N frames.
	ComputeStart
	// ComputeEnd: compute finished. Emitted once per batch (Frame == 0,
	// with N) and once per frame (Frame > 0).
	ComputeEnd
	// Downlinked: the analyzer judged the frame an insight and
	// downlinked the result.
	Downlinked
	// Lost: the frame exhausted its ISL retry budget and was dropped.
	Lost
	// NodeDeath: worker Node died permanently.
	NodeDeath
	// SEFIStart: worker Node hung on a transient SEFI; the watchdog
	// recovers it Dur seconds later.
	SEFIStart
	// SEFIEnd: the watchdog recovered worker Node.
	SEFIEnd
	// OutageStart: the ISL went down for Dur seconds. Cause carries the
	// window's ordinal ("isl-outage#k") so frame stalls can name it.
	OutageStart
	// OutageEnd: the ISL recovered.
	OutageEnd
	// SpanDone: a completed obs span (Name, wall Dur, simulated Sim) —
	// recorded when a Recorder is installed as a registry's span sink.
	SpanDone
	// Throttle: the degradation schedule entered a phase whose thermal
	// throttle multiplier (Mult) differs from 1; the phase lasts Dur
	// seconds. Node is -1 (throttling is fleet-wide in this model).
	Throttle
	// BrownoutStart: an eclipse power brownout parked N workers. Cause
	// carries the phase ordinal ("brownout#k") so stranded frames can
	// name it; Dur is the phase length.
	BrownoutStart
	// BrownoutEnd: the previous brownout lifted (N workers return).
	BrownoutEnd
	// Placed: the placement engine routed the frame to compute tier
	// Tier (onboard, space, ground-edge, or cloud) at capture time. A
	// Cause of "spill" marks a queue-aware deviation from the
	// zero-queue base tier.
	Placed
	// SLOAlert: the SLO engine's multi-window burn-rate alert fired
	// for objective Name in window N ([T-Dur, T)); Mult carries the
	// fast burn average and Cause the ranked environment attribution
	// (eclipse brownout, thermal throttle, ISL outage, spillover).
	SLOAlert

	numKinds
)

// kindNames are the stable wire names of each Kind.
var kindNames = [numKinds]string{
	FrameCaptured: "frame_captured",
	Enqueued:      "enqueued",
	Dispatched:    "dispatched",
	ISLSendStart:  "isl_send_start",
	ISLSendEnd:    "isl_send_end",
	Retry:         "retry",
	Shed:          "shed",
	ComputeStart:  "compute_start",
	ComputeEnd:    "compute_end",
	Downlinked:    "downlinked",
	Lost:          "lost",
	NodeDeath:     "node_death",
	SEFIStart:     "sefi_start",
	SEFIEnd:       "sefi_end",
	OutageStart:   "outage_start",
	OutageEnd:     "outage_end",
	SpanDone:      "span",
	Throttle:      "throttle",
	BrownoutStart: "brownout_start",
	BrownoutEnd:   "brownout_end",
	Placed:        "placed",
	SLOAlert:      "slo_alert",
}

// kindByName is the inverse of kindNames, for decoding.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for k, n := range kindNames {
		m[n] = Kind(k)
	}
	return m
}()

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one flight-recorder entry. The zero value of each optional
// field means "not applicable" — except Node, whose none value is -1
// (node and satellite indices start at 0).
type Event struct {
	// T is the simulated time in seconds (wall seconds since recorder
	// creation for SpanDone events).
	T float64 `json:"t"`
	// Kind is the event type.
	Kind Kind `json:"k"`
	// Frame is the 1-based stable frame ID; 0 for frame-less events.
	Frame int64 `json:"f,omitempty"`
	// Node is the worker index (or the satellite index for
	// FrameCaptured); -1 when the event is not node-scoped.
	Node int `json:"n"`
	// N is the batch size for batch-level ComputeStart/ComputeEnd.
	N int `json:"sz,omitempty"`
	// Attempt is the failed-attempt count so far (Retry, Lost).
	Attempt int `json:"a,omitempty"`
	// Backoff is the armed retry delay in seconds (Retry).
	Backoff float64 `json:"b,omitempty"`
	// Dur is a duration payload in seconds: SEFI recovery, outage
	// length, or span wall time.
	Dur float64 `json:"d,omitempty"`
	// Sim is a span's simulated duration in seconds (SpanDone).
	Sim float64 `json:"sim,omitempty"`
	// Mult is the service-rate multiplier of a Throttle phase.
	Mult float64 `json:"m,omitempty"`
	// Cause attributes the event to a fault window, e.g.
	// "isl-outage#2" or "node-death#3".
	Cause string `json:"c,omitempty"`
	// Edge names the ISL link ("<from>-<to>") of an edge-scoped event on
	// a graph with more than one ISL, and is "downlink" for a placement
	// downlink transfer; empty on a single-ISL graph such as the star.
	Edge string `json:"e,omitempty"`
	// Tier names the compute tier a Placed frame was routed to.
	Tier string `json:"tr,omitempty"`
	// Name is the span name (SpanDone).
	Name string `json:"name,omitempty"`
}

// DefaultLimit bounds a recorder created with limit ≤ 0: one million
// events (~100 MB at JSON width) before the recorder starts dropping.
const DefaultLimit = 1 << 20

// Recorder is a bounded, append-only event log. Record is safe for
// concurrent use, but the intended discipline is one single-threaded
// producer per recorder: concurrent producers take one child scope
// each (Child) so event order inside every scope stays deterministic.
type Recorder struct {
	limit int
	start time.Time

	mu       sync.Mutex
	events   []Event
	dropped  int64
	children map[string]*Recorder
}

// New returns a recorder bounded at limit events per scope
// (limit ≤ 0 = DefaultLimit).
func New(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Recorder{limit: limit, start: time.Now()}
}

// Child returns the named child scope, creating it (with the parent's
// limit) on first use. Concurrent producers must use distinct names;
// the exporters walk children in sorted name order. A nil recorder
// hands out nil children.
func (r *Recorder) Child(name string) *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.children == nil {
		r.children = map[string]*Recorder{}
	}
	c, ok := r.children[name]
	if !ok {
		c = &Recorder{limit: r.limit, start: r.start}
		r.children[name] = c
	}
	return c
}

// Record appends one event, or counts it as dropped once the recorder
// is full. A nil recorder swallows the event.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.events) >= r.limit {
		r.dropped++
	} else {
		r.events = append(r.events, e)
	}
	r.mu.Unlock()
}

// SpanDone records a completed span — the structural hook behind
// obs.Registry.SetSpanSink, recorded at wall time since recorder
// creation (span timing is a wall-clock affair; the deterministic
// frame events never use it).
func (r *Recorder) SpanDone(name string, wall time.Duration, sim float64) {
	if r == nil {
		return
	}
	r.Record(Event{
		T:    time.Since(r.start).Seconds(),
		Kind: SpanDone,
		Node: -1,
		Dur:  wall.Seconds(),
		Sim:  sim,
		Name: name,
	})
}

// Events returns a copy of this scope's events in record order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len returns the number of recorded events in this scope.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped returns how many events this scope discarded at its bound.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Scopes returns the child scope names in sorted order.
func (r *Recorder) Scopes() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.children))
	for n := range r.children {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalLen returns the event count summed over this scope and every
// descendant scope.
func (r *Recorder) TotalLen() int {
	if r == nil {
		return 0
	}
	n := r.Len()
	for _, name := range r.Scopes() {
		n += r.Child(name).TotalLen()
	}
	return n
}

// walk visits this recorder and every descendant in deterministic
// order: self first, then children ascending by name, with child
// scope paths joined by "/". Each scope's events are a [:len:len]
// snapshot of its append-only slice rather than a copy: later Records
// never write inside it, and visit must not write into it either.
func (r *Recorder) walk(prefix string, visit func(scope string, events []Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	events := r.events[:len(r.events):len(r.events)]
	r.mu.Unlock()
	visit(prefix, events)
	for _, name := range r.Scopes() {
		full := name
		if prefix != "" {
			full = prefix + "/" + name
		}
		r.Child(name).walk(full, visit)
	}
}
