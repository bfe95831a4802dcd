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
// events before the recorder starts dropping. An event takes 144 bytes
// in memory and about 58 bytes of JSONL, so a full scope holds about
// 151 MB and exports to about 61 MB.
const DefaultLimit = 1 << 20

// Recorder is a bounded, append-only event log. Record is safe for
// concurrent use, but the intended discipline is one single-threaded
// producer per recorder: concurrent producers take one child scope
// each (Child) so event order inside every scope stays deterministic.
type Recorder struct {
	limit int
	start time.Time

	mu       sync.Mutex
	log      eventBlocks
	dropped  int64
	children map[string]*Recorder
}

// Block sizes of a scope's event log: the first block holds minBlock
// events, and each next one twice its predecessor, up to maxBlock
// (144 KB). The cap bounds the unused tail of a scope's last block. In
// bench/'s trace-analysis workload, caps of 512 to 32,768 events ran
// equally fast, and peak RSS fell with the cap: about 92 MB at 32,768,
// 90 at 4,096, 87.5 at 2,048, 85.5 at 1,024 and 84 at 512, which
// doubles the blocks of a long recording for 1.5 MB.
const (
	minBlock = 256
	maxBlock = 1024
)

// eventBlocks is one scope's event log: blocks that never move once
// allocated, so appending never re-copies recorded events the way a
// growing slice does at every growth step. A full block is never
// written again and the current one only past its length, so a
// [:len:len] snapshot of the blocks taken under the recorder's lock
// stays valid, without a copy, while Record goes on appending.
type eventBlocks struct {
	full [][]Event
	cur  []Event
	n    int
}

func (b *eventBlocks) add(e *Event) {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]Event, 0, min(max(2*cap(b.cur), minBlock), maxBlock))
	}
	b.cur = append(b.cur, *e)
	b.n++
}

// snapshot returns the log's blocks as of now; the caller holds the
// recorder's lock, or owns the log alone.
func (b *eventBlocks) snapshot() eventBlocks {
	return eventBlocks{
		full: b.full[:len(b.full):len(b.full)],
		cur:  b.cur[:len(b.cur):len(b.cur)],
		n:    b.n,
	}
}

// each calls visit with every block of the log in order; no block is
// empty.
func (b eventBlocks) each(visit func(events []Event)) {
	for _, blk := range b.full {
		visit(blk)
	}
	if len(b.cur) > 0 {
		visit(b.cur)
	}
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
	if r.log.n >= r.limit {
		r.dropped++
	} else {
		r.log.add(&e)
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

// Events returns a copy of this scope's events in record order. Each
// reads them without the copy.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	blocks := r.snapshot()
	if blocks.n == 0 {
		return nil
	}
	out := make([]Event, 0, blocks.n)
	blocks.each(func(events []Event) { out = append(out, events...) })
	return out
}

// Each calls visit with every event of this scope in record order, up
// to the last one recorded when Each was called. It copies nothing: e
// points into the recorder's log, so visit must not write through it.
// Events recorded during the visit, by visit itself or by another
// goroutine, are not visited.
func (r *Recorder) Each(visit func(e *Event)) {
	if r == nil {
		return
	}
	r.snapshot().each(func(events []Event) {
		for i := range events {
			visit(&events[i])
		}
	})
}

// snapshot returns this scope's log as of now.
func (r *Recorder) snapshot() eventBlocks {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.snapshot()
}

// Len returns the number of recorded events in this scope.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.n
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
// scope paths joined by "/". Each scope's log is a snapshot of its
// blocks rather than a copy: later Records never write inside it, and
// visit must not write into it either.
func (r *Recorder) walk(prefix string, visit func(scope string, log eventBlocks)) {
	if r == nil {
		return
	}
	visit(prefix, r.snapshot())
	for _, name := range r.Scopes() {
		full := name
		if prefix != "" {
			full = prefix + "/" + name
		}
		r.Child(name).walk(full, visit)
	}
}
