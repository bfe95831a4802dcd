package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
	"unsafe"

	"sudc/internal/degrade"
	"sudc/internal/faults"
	"sudc/internal/obs/latency"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
	"sudc/internal/par"
	"sudc/internal/placement"
	"sudc/internal/units"
)

// randBuf batches Float64 draws from the cell's RNG stream. Draws are
// consumed in exactly the order the simulator requests them — buffering
// only moves the underlying generator calls out of the per-event path —
// so the value sequence, and therefore every golden, is unchanged. The
// generator may run ahead of the last consumed draw at the end of a
// run; it is the simulator's own and is reseeded before the next.
type randBuf struct {
	src  *rand.Rand
	i, n int
	buf  [512]float64
}

func (r *randBuf) reset(src *rand.Rand) {
	r.src, r.i, r.n = src, 0, 0
}

func (r *randBuf) Float64() float64 {
	if r.i >= r.n {
		for j := range r.buf {
			r.buf[j] = r.src.Float64()
		}
		r.i, r.n = 0, len(r.buf)
	}
	v := r.buf[r.i]
	r.i++
	return v
}

// linkState is one directed ISL edge: its static compile-time routing
// (where a frame delivered at the far end continues) plus its dynamic
// transfer state. The star is exactly one linkState with zero delay
// whose continuation is SµDC 0.
type linkState struct {
	// Static per-run compile outputs.
	sendTime float64 // per-frame transmission time, s
	delay    float64 // propagation delay, s
	dest     int     // local continuation: edge index, or ^sudcIndex
	cross    bool    // continuation lives in another cell
	destCell int     // cross: destination cell
	crossTo  int     // cross: continuation in the destination cell (edge or ^sudc)
	name     string  // metrics label "<from>-<to>"
	label    string  // trace edge label; "" on a single-ISL graph

	// Dynamic transfer state.
	queue      frameDeque // frames waiting for (or crossing) the link
	flight     frameDeque // intra-cell frames in propagation (delay > 0)
	sending    bool
	down       bool
	gen        int // invalidates stale evISLDone events
	sendStart  float64
	retryArmed bool
	busySum    float64
	downSum    float64
	outageIdx  int
	outageName string
}

// sudcState is one SµDC's batching queue over its slice of the flat
// worker array [w0, w0+nw).
type sudcState struct {
	w0, nw       int
	input        frameDeque
	timeoutArmed bool
}

// sourceState is one capture group: sats satellites sharing first-hop
// edge.
type sourceState struct {
	sats int
	edge int
}

// shardMsg is one cross-cell frame in flight: it arrives in cell `cell`
// at simulated time `at` and continues at target (edge index, or
// ^sudcIndex).
type shardMsg struct {
	at     float64
	f      frame
	cell   int
	target int
}

// simulator is one run's (or one shard cell's) entire state. The state
// lives in a struct rather than closure-captured locals so the loop
// body is allocation-free and simPool can recycle every backing array
// across runs; tests drive runUntil to pin the zero-allocation
// steady state with testing.AllocsPerRun.
//
// Each lifecycle point has one method that updates Stats and fans out
// to every enabled sink — the obs recorder (rec), the flight recorder
// (tr), and the window collector (win) — each behind one nil check:
// advance (clock, occupancy, windows, event counts), deliver (ISL
// enqueue or SµDC arrival), complete (a computed frame), strand (a
// batch returned for re-dispatch), and serve/served (placement tiers).
type simulator struct {
	// Cross-cell exchange (sharded runs only), first so that it fills
	// one cache line: the cell's runner fills outbox and pubAt, and the
	// barrier reads them and appends to the destinations' inboxes.
	outbox []shardMsg // frames sent to other cells in the cell's last run, in emission order
	inbox  []shardMsg // messages delivered since the cell's last run, in delivery order
	pubAt  float64    // next-event time at the end of the cell's last run

	// Derived per-run constants.
	c            Config
	horizon      float64
	framePeriod  float64
	frameBits    float64
	nodePixSec   float64
	framePixels  float64
	need         int
	totalWorkers int
	totalSats    int
	shedEnabled  bool
	shedLimit    int
	batchTimeout float64

	rng randBuf
	// ownRand is the pooled generator behind rng, reseeded in place from
	// the cell seed on every reset instead of allocating its ~5 KB state.
	ownRand *rand.Rand

	q   eventHeap
	fq  captureRing // per-satellite capture timers (see captureRing)
	seq int

	// Compiled topology. The star compiles to one source group, one
	// link, and one SµDC.
	sources    []sourceState
	links      []linkState
	sudcs      []sudcState
	satEdge    []int // cell-local satellite index → first-hop edge
	workerSudc []int // flat worker index → SµDC index

	workers     []workerState
	freeBatches [][]frame // batch free-list, recycled on frame completion

	// Arrived cross-cell messages (sharded runs only).
	arrivals  []shardMsg // slot-addressed arrivals; evArriveMsg.who indexes it
	freeSlots []int      // recycled arrival slots
	crossSent int
	crossRecv int

	effective    int
	lastT        float64
	upTime       float64
	degradedTime float64
	downWS       float64
	busySum      float64
	stats        Stats
	latencies    []float64
	now          float64

	rec *recorder
	tr  *trace.Recorder
	// mergeLat marks a multi-cell run: the shard runner recomputes the
	// latency distribution over the merged samples, so finish() skips
	// the per-cell sort (the Mean/P95 of one cell are never published).
	mergeLat bool
	frameID  int64

	// Placement engine (place == nil when the run has no placement;
	// every hot-path hook then reduces to one nil check). All service
	// times per tier are constants, so each server tier's in-service
	// frames complete in dispatch order and a single FIFO deque per tier
	// suffices — no per-server state; its length is the busy count.
	place        *placement.Config
	pmodel       placement.Model
	queueLen     [placement.NumTiers]int        // frames waiting or in service per tier
	tierQ        [placement.NumTiers]frameDeque // frames waiting for a tier server
	tierRun      [placement.NumTiers]frameDeque // frames in tier service, FIFO
	tierServers  [placement.NumTiers]int        // server pool sizes (cloud: unbounded)
	dlQueue      frameDeque                     // ground-bound frames waiting for (or crossing) the downlink
	dlSending    bool
	edgeWait     frameDeque // downlinked frames in access+propagation to the edge
	cloudWait    frameDeque // downlinked frames in access+WAN to the cloud
	dlSendTime   float64    // per-frame downlink transmission time, s
	accessDelay  float64    // mean wait for a usable ground pass, s
	wanDelay     float64    // ground-station-to-cloud backhaul, s
	tierLats     [placement.NumTiers][]float64
	tierFrames   [placement.NumTiers]int
	tierDollars  [placement.NumTiers]float64
	placeCostSum float64 // Σ realized per-frame cost over completed frames

	// Degradation replay (deg == nil when the run is degradation-free;
	// every hot-path hook below then reduces to one nil/false check).
	deg          *degrade.Schedule
	degPhase     int     // index of the active phase
	rateMult     float64 // active service-rate multiplier (1 when deg == nil)
	throttleShed bool
	deferEclipse bool
	rateMultInt  float64 // ∫ rateMult dt over the run
	throttledSum float64 // time with rateMult < 1
	brownoutSum  float64 // time with ≥ 1 browned worker
	browned      int     // workers currently parked by a brownout
	brownoutIdx  int     // brownout ordinal, for cause attribution

	// Windowed telemetry (win == nil when Config.Window is zero and Obs
	// is nil; every hot-path hook then reduces to one nil check). An
	// Obs-only run collects one-minute windows for the recorder alone.
	// A lone cell shares the shard runner's merger in winM and flushes
	// it live at each event; cells of a multi-cell graph leave winM nil
	// and the runner drains their collectors at the cross-cell
	// watermark.
	win       *window.Collector
	winM      *window.Merger
	downLinks int            // ISL edges currently in outage
	placeBase placement.Tier // zero-queue base tier of the placement policy
}

// freeList keeps values for reuse across runs. Unlike a sync.Pool,
// which a garbage collection empties and whose per-P slots hide a value
// from runs scheduled elsewhere, it never drops a value, and get hands
// out the value with the largest size recorded by put: the warmest
// arenas go to the next run. It holds at most as many values as were
// ever in use at once — for simulators, one per cell of the largest
// concurrent runs (64 for a 64-cell Walker).
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
	sizes []int
}

// get removes and returns the value with the largest recorded size, or
// reports false when the list is empty.
func (l *freeList[T]) get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return v, false
	}
	best := 0
	for i, sz := range l.sizes {
		if sz > l.sizes[best] {
			best = i
		}
	}
	v = l.items[best]
	l.items[best], l.sizes[best] = l.items[n-1], l.sizes[n-1]
	var zero T
	l.items[n-1] = zero
	l.items, l.sizes = l.items[:n-1], l.sizes[:n-1]
	return v, true
}

// put returns v to the list with its size.
func (l *freeList[T]) put(v T, size int) {
	l.mu.Lock()
	l.items = append(l.items, v)
	l.sizes = append(l.sizes, size)
	l.mu.Unlock()
}

// simPool keeps simulator state — heap, ring buffers, latency and batch
// arrays — across runs, so RunReplicas and repeated sweeps reach a
// steady state with no per-run arena growth.
var simPool freeList[*simulator]

func getSim() *simulator {
	if s, ok := simPool.get(); ok {
		return s
	}
	return new(simulator)
}

func putSim(s *simulator) {
	// Drop references owned by the caller so the pool never retains a
	// registry or recorder across runs. ownRand stays: the simulator owns
	// it and reseeds it in place.
	s.c = Config{}
	s.rec = nil
	s.tr = nil
	s.rng.src = nil
	s.place = nil
	s.win = nil
	s.winM = nil
	simPool.put(s, s.arenaBytes())
}

// arenaBytes is the capacity of the simulator's run-sized arrays, in
// bytes — what a run can use before it grows any: the event heap, the
// capture ring, the latency buffers and every frame deque.
func (s *simulator) arenaBytes() int {
	n := cap(s.q.a)*int(unsafe.Sizeof(event{})) + cap(s.fq.a)*int(unsafe.Sizeof(frameTimer{})) +
		cap(s.latencies)*8
	frames := cap(s.dlQueue.buf) + cap(s.edgeWait.buf) + cap(s.cloudWait.buf)
	for t := range s.tierLats {
		n += cap(s.tierLats[t]) * 8
		frames += cap(s.tierQ[t].buf) + cap(s.tierRun[t].buf)
	}
	links := s.links[:cap(s.links)]
	for i := range links {
		frames += cap(links[i].queue.buf) + cap(links[i].flight.buf)
	}
	sudcs := s.sudcs[:cap(s.sudcs)]
	for i := range sudcs {
		frames += cap(sudcs[i].input.buf)
	}
	return n + frames*int(unsafe.Sizeof(frame{}))
}

// resize reuses a slice's backing array for n entries; a new array is
// zeroed, a reused one keeps its old values.
func resize[T any](a []T, n int) []T {
	if cap(a) >= n {
		return a[:n]
	}
	return make([]T, n)
}

// resizeLinks resizes the link array to n entries, zeroing per-run
// state while keeping the warmed deque buffers of recycled slots.
func resizeLinks(links []linkState, n int) []linkState {
	if cap(links) >= n {
		links = links[:n]
	} else {
		old := links
		links = make([]linkState, n)
		copy(links, old)
	}
	for i := range links {
		l := &links[i]
		q, fl := l.queue, l.flight
		q.reset()
		fl.reset()
		*l = linkState{queue: q, flight: fl}
	}
	return links
}

// resizeSudcs resizes the SµDC array to n entries, keeping warmed input
// queues.
func resizeSudcs(sudcs []sudcState, n int) []sudcState {
	if cap(sudcs) >= n {
		sudcs = sudcs[:n]
	} else {
		old := sudcs
		sudcs = make([]sudcState, n)
		copy(sudcs, old)
	}
	for i := range sudcs {
		d := &sudcs[i]
		in := d.input
		in.reset()
		*d = sudcState{input: in}
	}
	return sudcs
}

// resetCommon prepares everything that does not depend on the layout:
// derived constants, the RNG, the worker array, counters, and arenas.
func (s *simulator) resetCommon(c Config, workers int) {
	s.c = c
	s.horizon = c.Duration.Seconds()
	s.framePeriod = 60 / c.Constellation.FramesPerMinute
	s.frameBits = c.App.FrameBits() * (1 - c.Constellation.FilterRate)
	s.nodePixSec = c.App.KPixelPerJoule * 1e3 * float64(c.App.GPUPower)
	s.framePixels = c.App.FrameMPixels * 1e6 * (1 - c.Constellation.FilterRate)

	s.shedEnabled = c.ShedThreshold != 0
	s.shedLimit = c.ShedThreshold
	if c.ShedThreshold == ShedAll {
		s.shedLimit = 0
	}
	s.batchTimeout = c.BatchTimeout.Seconds()

	if s.ownRand == nil {
		s.ownRand = par.NewRand(c.Seed)
	} else {
		s.ownRand.Seed(c.Seed)
	}
	s.rng.reset(s.ownRand)

	// Recycle batch slices still attached to the previous run's workers
	// before the worker slice is reused.
	for i := range s.workers {
		if b := s.workers[i].batch; b != nil {
			s.freeBatches = append(s.freeBatches, b[:0])
			s.workers[i].batch = nil
		}
	}
	if cap(s.workers) >= workers {
		s.workers = s.workers[:workers]
		for i := range s.workers {
			s.workers[i] = workerState{}
		}
	} else {
		s.workers = make([]workerState, workers)
	}
	s.totalWorkers = workers

	s.q.reset()
	s.fq.reset()
	s.seq = 0
	s.outbox = s.outbox[:0]
	s.inbox = s.inbox[:0]
	s.arrivals = s.arrivals[:0]
	s.freeSlots = s.freeSlots[:0]
	s.crossSent, s.crossRecv = 0, 0
	s.effective = workers
	s.lastT, s.upTime, s.degradedTime, s.downWS, s.busySum = 0, 0, 0, 0, 0
	s.stats = Stats{}
	s.now = 0

	s.place = nil
	s.queueLen = [placement.NumTiers]int{}
	for i := range s.tierLats {
		s.tierQ[i].reset()
		s.tierRun[i].reset()
		s.tierLats[i] = s.tierLats[i][:0]
	}
	s.tierServers = [placement.NumTiers]int{}
	s.dlQueue.reset()
	s.dlSending = false
	s.edgeWait.reset()
	s.cloudWait.reset()
	s.tierFrames = [placement.NumTiers]int{}
	s.tierDollars = [placement.NumTiers]float64{}
	s.placeCostSum = 0

	s.deg = nil
	s.degPhase = 0
	s.rateMult = 1
	s.throttleShed, s.deferEclipse = false, false
	s.rateMultInt, s.throttledSum, s.brownoutSum = 0, 0, 0
	s.browned, s.brownoutIdx = 0, 0

	s.win, s.winM = nil, nil
	s.downLinks = 0
	s.placeBase = 0

	s.rec = nil

	// Frame-lineage flight recording. tr stays nil when tracing is off,
	// so the hot loop pays one nil check per lifecycle point. Frame IDs
	// are assigned in capture order and outage windows are numbered in
	// start order — both pure functions of simulated time.
	s.tr = c.Trace
	s.frameID = 0
}

// sizeLatencies pre-sizes the latency buffer for the worst-case frame
// count (5% jitter bound), so steady-state appends never reallocate.
func (s *simulator) sizeLatencies(sats int) {
	maxFrames := int(float64(sats)*s.horizon/(s.framePeriod*0.95)) + sats + 16
	if cap(s.latencies) < maxFrames {
		s.latencies = make([]float64, 0, maxFrames)
	} else {
		s.latencies = s.latencies[:0]
	}
}

// seedEvents pushes the initial event population: per-satellite frame
// generation with random phase, then the fault schedule. The push order
// is part of the determinism contract (it fixes event sequence numbers).
func (s *simulator) seedEvents(sched faults.Schedule) {
	sat := 0
	for gi := range s.sources {
		g := &s.sources[gi]
		for i := 0; i < g.sats; i++ {
			s.satEdge[sat] = g.edge
			s.pushFrame(s.rng.Float64()*s.framePeriod, sat)
			sat++
		}
	}
	s.fq.sort()
	for w, death := range sched.Deaths {
		if death <= s.horizon {
			s.push(event{at: death, kind: evWorkerDeath, who: w})
		}
	}
	for _, hg := range sched.Hangs {
		s.push(event{at: hg.At, kind: evSEFIStart, who: hg.Node, dur: hg.Recovery})
	}
	for _, o := range sched.Outages {
		s.push(event{at: o.Start, kind: evOutageStart, who: o.Edge, dur: o.Duration})
	}
	// Degradation phase transitions go last so degradation-free runs keep
	// their exact pre-degradation event sequence numbers. Phase 0 is
	// applied directly by reset, not via an event.
	if s.deg != nil {
		for i := 1; i < len(s.deg.Phases); i++ {
			s.push(event{at: s.deg.Phases[i].Start, kind: evPhase, who: i})
		}
	}
}

// setDegrade installs the (possibly nil) degradation schedule and its
// policy knobs. Must run before seedEvents and newRecorder: both key on
// s.deg.
func (s *simulator) setDegrade(deg *degrade.Schedule) {
	s.deg = deg
	if deg != nil {
		s.throttleShed = s.c.ThrottleShed
		s.deferEclipse = s.c.DeferInEclipse
	}
}

// degPhases returns the phase-event count for event-heap sizing.
func (s *simulator) degPhases() int {
	if s.deg == nil {
		return 0
	}
	return len(s.deg.Phases)
}

func (s *simulator) push(e event) {
	s.seq++
	e.seq = s.seq
	s.q.push(e)
}

// pushFrame schedules a satellite capture, drawing the next global
// sequence number so timers and events share one strict total order.
func (s *simulator) pushFrame(at float64, who int) {
	s.seq++
	s.fq.push(frameTimer{at: at, seq: s.seq, who: who})
}

// nextAt returns the next event time over both queues, or +Inf when the
// simulation has drained.
func (s *simulator) nextAt() float64 {
	at := math.Inf(1)
	if len(s.q.a) > 0 {
		at = s.q.a[0].at
	}
	if s.fq.len() > 0 && s.fq.top().at < at {
		at = s.fq.top().at
	}
	return at
}

// frameFirst reports whether the next event in (at, seq) order is the
// earliest capture timer rather than the event-heap top. Sequence
// numbers are unique across both queues, so the order is strict and the
// split pops the exact event sequence a single heap would.
func (s *simulator) frameFirst() bool {
	if s.fq.len() == 0 {
		return false
	}
	if len(s.q.a) == 0 {
		return true
	}
	f, e := s.fq.top(), &s.q.a[0]
	if f.at != e.at {
		return f.at < e.at
	}
	return f.seq < e.seq
}

// inject lands one cross-cell message: the frame is parked in an
// arrival slot (recycled through freeSlots, so the steady state is
// allocation-free) and an evArriveMsg event delivers it at m.at.
func (s *simulator) inject(m shardMsg) {
	var slot int
	if n := len(s.freeSlots); n > 0 {
		slot = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		s.arrivals[slot] = m
	} else {
		slot = len(s.arrivals)
		s.arrivals = append(s.arrivals, m)
	}
	s.push(event{at: m.at, kind: evArriveMsg, who: slot})
}

// getBatch takes a frame slice from the free-list (or allocates one
// during warm-up).
func (s *simulator) getBatch() []frame {
	if n := len(s.freeBatches); n > 0 {
		b := s.freeBatches[n-1]
		s.freeBatches = s.freeBatches[:n-1]
		if cap(b) >= s.c.BatchSize {
			return b[:0]
		}
	}
	return make([]frame, 0, s.c.BatchSize)
}

// putBatch recycles a finished batch's slice.
func (s *simulator) putBatch(b []frame) {
	s.freeBatches = append(s.freeBatches, b[:0])
}

// advance moves the clock to the time t of the next event of the given
// kind — the shared head of apply and applyFrame: every time integral
// accrues up to t, and the recorder counts the event.
func (s *simulator) advance(t float64, kind int) {
	s.now = t
	s.accrue(t)
	if s.rec != nil {
		s.rec.events[kind]++
	}
}

// accrue brings every time integral up to t: availability,
// occupancy, and windows integrate over the constant span [lastT, t).
func (s *simulator) accrue(t float64) {
	if dt := t - s.lastT; dt > 0 {
		if s.effective >= s.need {
			s.upTime += dt
		}
		if s.effective < s.totalWorkers {
			s.degradedTime += dt
		}
		s.downWS += dt * float64(s.totalWorkers-s.effective)
		if s.deg != nil {
			s.rateMultInt += dt * s.rateMult
			if s.rateMult < 1 {
				s.throttledSum += dt
			}
			if s.browned > 0 {
				s.brownoutSum += dt
			}
		}
	}
	s.lastT = t
	if s.win != nil {
		// The environment has been constant since the previous event, so
		// the span [lastT, t) integrates exactly. A lone cell folds and
		// flushes closed windows immediately — its watermark is its own
		// clock; cells of a multi-cell graph hold fragments for the shard
		// runner's cross-cell watermark.
		if len(s.advanceWindows(t)) > 0 && s.winM != nil {
			for _, f := range s.win.Drain() {
				s.winM.Add(f)
			}
			s.winM.Flush(t)
		}
	}
}

// advanceWindows brings the window collector up to t and returns the
// fragments that closed. Each closed window is one point of every obs
// series, so the collector is the run's only simulated-time grid. An
// Obs-only run (Window zero) has no merger to fold its fragments into,
// so they are dropped once recorded.
func (s *simulator) advanceWindows(t float64) []window.Fragment {
	closed := s.win.Advance(t, s.winEnv())
	if s.rec != nil && len(closed) > 0 {
		for i := range closed {
			s.rec.record(&closed[i])
		}
		if s.c.Window == 0 {
			s.win.Drain()
		}
	}
	return closed
}

// winEnv snapshots the cell environment for window occupancy. Valid
// between events only: callers advance the collector before applying
// the state change at the new event time.
func (s *simulator) winEnv() window.Env {
	return window.Env{
		Up:        s.effective >= s.need,
		Weight:    float64(s.totalWorkers),
		Eclipse:   s.deg != nil && s.deg.Phases[s.degPhase].Eclipse,
		Throttled: s.rateMult < 1,
		Browned:   s.browned > 0,
		DownLinks: s.downLinks,
	}
}

// closeWindows finalizes the window stream after finish(), which has
// already advanced the collector to the horizon: the trailing partial
// window closes, and every remaining fragment folds into the merger m
// (nil when Window is zero).
func (s *simulator) closeWindows(m *window.Merger) {
	if m == nil {
		return
	}
	s.win.Close()
	for _, f := range s.win.Drain() {
		m.Add(f)
	}
}

func (s *simulator) recount() {
	s.effective = 0
	for i := range s.workers {
		if !s.workers[i].dead && !s.workers[i].hung && !s.workers[i].browned {
			s.effective++
		}
	}
}

// The first ISL retry waits retryBackoff seconds; each further failed
// attempt doubles the wait, up to retryBackoffCap.
const (
	retryBackoff    = 2.0
	retryBackoffCap = 60.0
	// backoffDoublings is the attempt count at which the doubling
	// reaches the cap: 2 s · 2^5 = 64 s ≥ 60 s. Clamping the exponent
	// before the doubling guards the float64 math: under RetryLimit 0 a
	// frame can accumulate thousands of failed attempts across a long
	// ISL outage, and an unguarded 2^(tries-1) overflows to +Inf, one
	// zero or NaN ingredient away from a corrupted event timestamp that
	// would break the event-queue ordering.
	backoffDoublings = 5
)

// backoff is the delay before the retry that follows a frame's
// tries-th failed attempt, in seconds.
func backoff(tries int) float64 {
	if k := tries - 1; k < backoffDoublings {
		return math.Ldexp(retryBackoff, k)
	}
	return retryBackoffCap
}

// failHead records a failed transmission attempt for link ei's head
// frame: retry after backoff, or drop it past the retry limit.
func (s *simulator) failHead(ei int) {
	l := &s.links[ei]
	f := l.queue.front()
	f.tries++
	tries := int(f.tries)
	if s.c.RetryLimit > 0 && tries > s.c.RetryLimit {
		if s.tr != nil {
			s.tr.Record(trace.Event{T: s.now, Kind: trace.Lost, Frame: f.id,
				Node: -1, Attempt: tries, Cause: l.outageName, Edge: l.label})
		}
		l.queue.popFront()
		s.stats.FramesLost++
		s.win.Count(window.CntLost, 1)
		if s.place != nil {
			s.queueLen[placement.TierSpace]--
		}
		return
	}
	s.stats.FramesRetried++
	s.win.Count(window.CntRetried, 1)
	l.retryArmed = true
	delay := backoff(tries)
	if s.rec != nil {
		s.rec.backoff.Observe(delay)
	}
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.Retry, Frame: f.id,
			Node: -1, Attempt: tries, Backoff: delay, Cause: l.outageName, Edge: l.label})
	}
	s.push(event{at: s.now + delay, kind: evISLRetry, who: ei})
}

// attemptISL starts link ei's head-frame transfer, or fails it into
// backoff when the link is down.
func (s *simulator) attemptISL(ei int) {
	l := &s.links[ei]
	for !l.sending && !l.retryArmed && l.queue.len() > 0 {
		if l.down {
			s.failHead(ei) // arms a retry (exits loop) or drops the head
			continue
		}
		l.sending = true
		l.gen++
		l.sendStart = s.now
		if s.tr != nil {
			s.tr.Record(trace.Event{T: s.now, Kind: trace.ISLSendStart,
				Frame: l.queue.front().id, Node: -1, Edge: l.label})
		}
		s.push(event{at: s.now + l.sendTime, kind: evISLDone, who: ei, gen: l.gen})
		return
	}
}

// addToInput lands a frame in SµDC si's batching queue, shedding the
// lowest-value frame when the queue outgrows the threshold.
func (s *simulator) addToInput(si int, f frame) {
	in := &s.sudcs[si].input
	in.pushBack(f)
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.Enqueued, Frame: f.id, Node: -1})
	}
	limit := s.shedLimit
	if s.throttleShed && s.rateMult < 1 {
		// Throttle-aware shedding: the queue the SµDC can afford shrinks
		// with its service rate.
		limit = int(float64(limit) * s.rateMult)
	}
	if s.shedEnabled && in.len() > limit {
		low := 0
		for i := 1; i < in.len(); i++ {
			if in.at(i).value < in.at(low).value {
				low = i
			}
		}
		if s.tr != nil {
			s.tr.Record(trace.Event{T: s.now, Kind: trace.Shed,
				Frame: in.at(low).id, Node: -1})
		}
		in.removeAt(low)
		s.stats.FramesShed++
		s.win.Count(window.CntShed, 1)
		if s.place != nil {
			s.queueLen[placement.TierSpace]--
		}
	}
	if in.len() > s.stats.MaxInputQueue {
		s.stats.MaxInputQueue = in.len()
	}
}

// freeWorker returns the lowest-index dispatchable worker in the
// SµDC's slice, for deterministic worker selection.
func (s *simulator) freeWorker(d *sudcState) int {
	for i := d.w0; i < d.w0+d.nw; i++ {
		w := &s.workers[i]
		if !w.dead && !w.hung && !w.browned && !w.busy {
			return i
		}
	}
	return -1
}

func (s *simulator) dispatch(si int, force bool) {
	d := &s.sudcs[si]
	for d.input.len() >= s.c.BatchSize || (force && d.input.len() > 0) {
		wi := s.freeWorker(d)
		if wi < 0 {
			break
		}
		n := s.c.BatchSize
		if n > d.input.len() {
			n = d.input.len()
		}
		batch := s.getBatch()
		for i := 0; i < n; i++ {
			batch = append(batch, d.input.popFront())
		}
		w := &s.workers[wi]
		service := float64(n) * s.framePixels / s.nodePixSec
		if s.deg != nil {
			// Thermal throttling stretches service time. Unthrottled
			// phases divide by exactly 1, which is bit-exact.
			service /= s.rateMult
		}
		s.busySum += service
		w.busy = true
		w.batch = batch
		w.gen++
		w.doneAt = s.now + service
		if s.tr != nil {
			for _, f := range batch {
				s.tr.Record(trace.Event{T: s.now, Kind: trace.Dispatched, Frame: f.id, Node: wi})
			}
			s.tr.Record(trace.Event{T: s.now, Kind: trace.ComputeStart, Node: wi, N: n})
		}
		s.push(event{at: w.doneAt, kind: evBatchDone, who: wi, gen: w.gen})
	}
	if d.input.len() > 0 && !d.timeoutArmed {
		d.timeoutArmed = true
		s.push(event{at: s.now + s.batchTimeout, kind: evBatchingOut, who: si})
	}
}

// deliver hands frame f to its continuation target: the queue of ISL
// edge target, or the batcher of SµDC ^target.
func (s *simulator) deliver(target int, f frame) {
	if target >= 0 {
		s.links[target].queue.pushBack(f)
		s.attemptISL(target)
		return
	}
	si := ^target
	s.addToInput(si, f)
	s.dispatch(si, false)
}

// strand returns worker w's in-flight batch, if it has one, to the head
// of SµDC si's input queue for re-dispatch — on a node death or when a
// brownout parks the worker. cause labels the re-enqueued trace events;
// callers format it only when tracing is on.
func (s *simulator) strand(w *workerState, si int, cause string) {
	if !w.busy {
		return
	}
	w.busy = false
	w.gen++
	s.busySum -= w.doneAt - s.now
	s.stats.FramesRedispatched += len(w.batch)
	s.win.Count(window.CntRedispatched, int64(len(w.batch)))
	if s.tr != nil {
		for _, f := range w.batch {
			s.tr.Record(trace.Event{T: s.now, Kind: trace.Enqueued,
				Frame: f.id, Node: -1, Cause: cause})
		}
	}
	in := &s.sudcs[si].input
	for i := len(w.batch) - 1; i >= 0; i-- {
		in.pushFront(w.batch[i])
	}
	if in.len() > s.stats.MaxInputQueue {
		s.stats.MaxInputQueue = in.len()
	}
	s.putBatch(w.batch)
	w.batch = nil
}

// complete finishes one computed frame on worker node, or on a
// placement tier server (node -1): latency, per-tier accounting, and
// the analyzer's insight decision replayed from the value drawn at
// capture.
func (s *simulator) complete(f frame, node int) {
	lat := s.now - f.born
	s.stats.FramesProcessed++
	s.win.Count(window.CntProcessed, 1)
	s.latencies = append(s.latencies, lat)
	s.win.Latency(lat)
	if s.rec != nil {
		s.rec.latency.Observe(lat)
	}
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.ComputeEnd, Frame: f.id, Node: node})
	}
	if s.place != nil {
		s.accountTier(placement.Tier(f.tier), lat)
	}
	if f.value >= 1-s.c.InsightFraction {
		s.stats.InsightsDownlinked++
		s.win.Count(window.CntInsights, 1)
		if s.tr != nil {
			s.tr.Record(trace.Event{T: s.now, Kind: trace.Downlinked, Frame: f.id, Node: node})
		}
	}
}

// applyPhase activates degradation phase pi: the service-rate
// multiplier switches, and the phase's power budget parks the
// highest-index workers of every SµDC beyond its powered complement.
// A batch in flight on a parked worker is stranded back to the head of
// the input queue exactly like on a node death, and the surviving
// powered workers pick the frames up in deterministic order.
func (s *simulator) applyPhase(pi int) {
	ph := &s.deg.Phases[pi]
	s.degPhase = pi
	s.rateMult = ph.RateMult
	if s.tr != nil && ph.RateMult != 1 {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.Throttle, Node: -1,
			Mult: ph.RateMult, Dur: s.deg.End(pi) - ph.Start})
	}
	if s.browned > 0 && s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.BrownoutEnd, Node: -1, N: s.browned})
	}
	s.browned = 0
	cause := ""
	if ph.PowerFrac < 1 {
		s.brownoutIdx++
		if s.tr != nil {
			cause = fmt.Sprintf("brownout#%d", s.brownoutIdx)
		}
	}
	for si := range s.sudcs {
		d := &s.sudcs[si]
		powered := d.nw
		if ph.PowerFrac < 1 {
			powered = int(math.Ceil(ph.PowerFrac * float64(d.nw)))
			if powered < 1 {
				powered = 1 // the battery always carries one worker
			}
		}
		for i := d.w0; i < d.w0+powered; i++ {
			s.workers[i].browned = false
		}
		for i := d.w0 + powered; i < d.w0+d.nw; i++ {
			w := &s.workers[i]
			s.browned++
			if !w.browned {
				w.browned = true
				s.strand(w, si, cause)
			}
		}
	}
	if s.browned > 0 && s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.BrownoutStart, Node: -1,
			N: s.browned, Dur: s.deg.End(pi) - ph.Start, Cause: cause})
	}
	s.recount()
	for si := range s.sudcs {
		s.dispatch(si, false)
	}
}

// runUntil drains events with at < limit (final windows include the
// boundary: at ≤ limit), the per-window half of the conservative
// synchronizer. Non-final windows must exclude the boundary so a
// cross-cell message arriving exactly at the next window start is
// injected before any local event at that instant is applied.
func (s *simulator) runUntil(limit float64, final bool) {
	for {
		timer := s.frameFirst()
		var at float64
		switch {
		case timer:
			at = s.fq.top().at
		case len(s.q.a) > 0:
			at = s.q.a[0].at
		default:
			return
		}
		if at > limit || at == limit && !final {
			return
		}
		if timer {
			s.applyFrame()
		} else {
			s.apply(s.q.pop())
		}
	}
}

// applyFrame advances the simulation by one satellite capture — the
// evFrameReady arm of apply, fused with the timer reschedule: the
// earliest timer is replaced by its successor in one ring move instead
// of a pop and a push. The successor draws its sequence number after
// any transfer events the capture pushed, as a pop followed by a push
// would, so event numbering is unchanged.
func (s *simulator) applyFrame() {
	t := *s.fq.top()
	s.advance(t.at, evFrameReady)
	s.stats.FramesGenerated++
	s.win.Count(window.CntGenerated, 1)
	s.frameID++
	// The value draw stays immediately before the jitter draw and the
	// placement decision draws nothing, so the RNG stream is identical
	// with and without placement.
	f := frame{id: s.frameID, born: s.now, value: s.rng.Float64()}
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.FrameCaptured,
			Frame: f.id, Node: t.who})
	}
	if s.place == nil {
		s.deliver(s.satEdge[t.who], f)
	} else {
		s.route(f, t.who)
	}
	// Next frame from this satellite, with 5% timing jitter.
	jitter := 1 + 0.1*(s.rng.Float64()-0.5)
	s.seq++
	s.fq.replaceTop(frameTimer{at: s.now + s.framePeriod*jitter, seq: s.seq, who: t.who})
}

// apply advances the simulation by one event.
func (s *simulator) apply(e event) {
	s.advance(e.at, e.kind)
	switch e.kind {
	case evISLDone:
		ei := e.who
		l := &s.links[ei]
		if e.gen != l.gen || !l.sending {
			break // transfer aborted by an outage
		}
		l.sending = false
		l.busySum += s.now - l.sendStart
		f := l.queue.popFront()
		if s.tr != nil {
			s.tr.Record(trace.Event{T: s.now, Kind: trace.ISLSendEnd, Frame: f.id,
				Node: -1, Edge: l.label})
		}
		switch {
		case l.cross:
			// The frame leaves this cell: it becomes a timestamped
			// message the shard runner delivers at the next barrier.
			s.crossSent++
			if s.place != nil {
				// The frame leaves this cell's space queue; the consumer
				// cell counts it back in on arrival.
				s.queueLen[placement.TierSpace]--
			}
			s.outbox = append(s.outbox, shardMsg{
				at: s.now + l.delay, f: f, cell: l.destCell, target: l.crossTo})
			s.attemptISL(ei)
		case l.delay > 0:
			// Propagation within the cell: the link frees immediately,
			// the frame arrives delay seconds later (per-edge constant
			// delay keeps the flight deque FIFO-correct).
			l.flight.pushBack(f)
			s.push(event{at: s.now + l.delay, kind: evArrive, who: ei})
			s.attemptISL(ei)
		case l.dest >= 0:
			// Zero-delay relay hop onto the next edge.
			s.links[l.dest].queue.pushBack(f)
			s.attemptISL(ei)
			s.attemptISL(l.dest)
		default:
			// Arrival at the SµDC. This operation order (enqueue, next
			// transfer, dispatch) is pinned by the goldens — do not
			// reorder.
			si := ^l.dest
			s.addToInput(si, f)
			s.attemptISL(ei)
			s.dispatch(si, false)
		}

	case evArrive:
		l := &s.links[e.who]
		s.deliver(l.dest, l.flight.popFront())

	case evArriveMsg:
		m := s.arrivals[e.who]
		s.freeSlots = append(s.freeSlots, e.who)
		s.crossRecv++
		s.stats.CrossShardFrames++
		if s.place != nil {
			s.queueLen[placement.TierSpace]++
		}
		s.deliver(m.target, m.f)

	case evISLRetry:
		l := &s.links[e.who]
		l.retryArmed = false
		s.attemptISL(e.who)

	case evOutageStart:
		ei := e.who
		l := &s.links[ei]
		if !l.down {
			s.downLinks++
		}
		l.down = true
		l.outageIdx++
		l.outageName = ""
		if s.tr != nil {
			if l.label == "" {
				l.outageName = fmt.Sprintf("isl-outage#%d", l.outageIdx)
			} else {
				l.outageName = fmt.Sprintf("isl-outage#%d@%s", l.outageIdx, l.label)
			}
			s.tr.Record(trace.Event{T: s.now, Kind: trace.OutageStart,
				Node: -1, Dur: e.dur, Cause: l.outageName, Edge: l.label})
		}
		end := s.now + e.dur
		if clip := math.Min(end, s.horizon); clip > s.now {
			l.downSum += clip - s.now
		}
		s.push(event{at: end, kind: evOutageEnd, who: ei})
		if l.sending {
			// Abort the in-flight transfer; the head frame retries.
			l.sending = false
			l.gen++
			l.busySum += s.now - l.sendStart
			if s.tr != nil {
				s.tr.Record(trace.Event{T: s.now, Kind: trace.ISLSendEnd,
					Frame: l.queue.front().id, Node: -1, Cause: l.outageName, Edge: l.label})
			}
			s.failHead(ei)
			s.attemptISL(ei)
		}

	case evOutageEnd:
		l := &s.links[e.who]
		if l.down {
			s.downLinks--
		}
		l.down = false
		if s.tr != nil {
			s.tr.Record(trace.Event{T: s.now, Kind: trace.OutageEnd,
				Node: -1, Cause: l.outageName, Edge: l.label})
		}
		s.attemptISL(e.who)

	case evWorkerDeath:
		w := &s.workers[e.who]
		if w.dead {
			break
		}
		w.dead = true
		if s.tr != nil {
			s.tr.Record(trace.Event{T: s.now, Kind: trace.NodeDeath, Node: e.who})
		}
		si := s.workerSudc[e.who]
		cause := ""
		if s.tr != nil && w.busy {
			cause = fmt.Sprintf("node-death#%d", e.who)
		}
		s.strand(w, si, cause)
		s.recount()
		s.dispatch(si, false)

	case evSEFIStart:
		w := &s.workers[e.who]
		if w.dead || w.hung {
			break
		}
		w.hung = true
		if s.tr != nil {
			s.tr.Record(trace.Event{T: s.now, Kind: trace.SEFIStart, Node: e.who, Dur: e.dur})
		}
		if w.busy {
			// The watchdog reboots the node and the batch resumes:
			// completion slips by the recovery time.
			w.gen++
			w.doneAt += e.dur
			s.push(event{at: w.doneAt, kind: evBatchDone, who: e.who, gen: w.gen})
		}
		s.push(event{at: s.now + e.dur, kind: evSEFIEnd, who: e.who})
		s.recount()

	case evSEFIEnd:
		w := &s.workers[e.who]
		if w.dead || !w.hung {
			break
		}
		w.hung = false
		if s.tr != nil {
			s.tr.Record(trace.Event{T: s.now, Kind: trace.SEFIEnd, Node: e.who})
		}
		s.recount()
		s.dispatch(s.workerSudc[e.who], false)

	case evBatchDone:
		w := &s.workers[e.who]
		if w.dead || !w.busy || e.gen != w.gen {
			break // stale: the worker died or the batch slipped
		}
		w.busy = false
		if s.tr != nil {
			s.tr.Record(trace.Event{T: s.now, Kind: trace.ComputeEnd,
				Node: e.who, N: len(w.batch)})
		}
		for _, f := range w.batch {
			s.complete(f, e.who)
		}
		s.putBatch(w.batch)
		w.batch = nil
		s.dispatch(s.workerSudc[e.who], false)

	case evBatchingOut:
		si := e.who
		d := &s.sudcs[si]
		if s.deferEclipse && d.input.len() > 0 && s.deg.Phases[s.degPhase].Eclipse {
			if end := s.deg.End(s.degPhase); end < s.horizon {
				// Deadline-aware deferral: hold the partial batch until
				// sunlit power returns. timeoutArmed stays set so new
				// arrivals don't arm a second timeout. The evPhase event
				// at `end` was seeded earlier, so it applies first and
				// unparks the workers before this re-armed timeout fires.
				s.stats.BatchesDeferred++
				s.win.Count(window.CntDeferred, 1)
				s.push(event{at: end, kind: evBatchingOut, who: si})
				break
			}
		}
		d.timeoutArmed = false
		s.dispatch(si, true)

	case evPhase:
		s.applyPhase(e.who)

	case evDownlinkDone:
		s.downlinkDone()

	case evEdgeArrive:
		s.serve(placement.TierGroundEdge, s.edgeWait.popFront())

	case evCloudArrive:
		s.serve(placement.TierCloud, s.cloudWait.popFront())

	case evOnboardDone, evEdgeDone, evCloudDone:
		s.served(placement.Tier(e.who))
	}
}

// finish closes every time integral at the horizon and assembles the
// run's Stats.
func (s *simulator) finish() Stats {
	s.accrue(s.horizon)

	stats := s.stats
	stats.Backlog = stats.FramesGenerated - stats.FramesProcessed - stats.FramesShed - stats.FramesLost
	if len(s.latencies) > 0 && !s.mergeLat {
		latency.Sort(s.latencies)
		var sum float64
		for _, l := range s.latencies {
			sum += l
		}
		stats.MeanLatency = time.Duration(sum / float64(len(s.latencies)) * float64(time.Second))
		stats.P95Latency = time.Duration(s.latencies[int(float64(len(s.latencies))*0.95)] * float64(time.Second))
	}
	var islBusy, islDown float64
	for i := range s.links {
		islBusy += s.links[i].busySum
		islDown += s.links[i].downSum
	}
	if len(s.links) > 0 {
		stats.ISLUtilization = units.Clamp(islBusy/(s.horizon*float64(len(s.links))), 0, 1)
	}
	if s.totalWorkers > 0 {
		stats.WorkerUtilization = units.Clamp(s.busySum/(s.horizon*float64(s.totalWorkers)), 0, 1)
	}
	stats.ComputeEnergy = units.Energy(s.busySum * float64(s.c.App.GPUPower))
	stats.KeptUp = stats.Backlog <= 2*s.c.BatchSize*s.totalWorkers
	stats.WorkerDowntime = time.Duration(s.downWS * float64(time.Second))
	stats.ISLDowntime = time.Duration(islDown * float64(time.Second))
	stats.DegradedFraction = units.Clamp(s.degradedTime/s.horizon, 0, 1)
	stats.Availability = units.Clamp(s.upTime/s.horizon, 0, 1)
	stats.MeanRateMult = 1
	if s.deg != nil {
		stats.MeanRateMult = s.rateMultInt / s.horizon
		stats.ThrottledTime = time.Duration(s.throttledSum * float64(time.Second))
		stats.BrownoutTime = time.Duration(s.brownoutSum * float64(time.Second))
	}
	if s.place != nil {
		s.finishPlacement(&stats)
	}
	if s.rec != nil {
		s.rec.flush(s.c.Obs, stats)
	}
	return stats
}
