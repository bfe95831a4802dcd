package netsim

// Sharded topology execution: each graph cell (orbital plane, cluster)
// runs the allocation-free DES core on its own subgraph, and cells
// synchronize conservatively in the style of Chandy–Misra–Bryant.
//
// Per-cell lookahead. Let next_i be cell i's earliest local event and
// d_ji the minimum cross-cell delay of the edges j → i (from
// topo.CellGraph). The earliest simulated time cell j can still act at
// is the relaxation fixpoint
//
//	T_i = min(next_i, min_j (T_j + d_ji))
//
// — j cannot act before its own next event or before the earliest
// message that could reach it wakes it. computeLimits solves the
// fixpoint (all cells are sources, keyed next_i; cross-cell delays are
// validated positive) and sets each cell's run limit to
//
//	limit_i = min_j (T_j + d_ji)
//
// over the neighbors j that settle within the horizon. By induction on
// the global event order, nothing cell j ever does happens before T_j,
// so no message can reach cell i before limit_i: i safely processes
// every event with at < limit_i this round. A cell whose limit reaches
// the horizon runs to it inclusively (runUntil's final round, which
// stops only at at > horizon); a cell with no incoming cross-cell edges
// has limit_i = +Inf and finishes in its first round. The fixpoint is
// never more conservative than the old global tmin + min-cross-delay
// window, and on graphs with heterogeneous delays (short FSO hops, long
// ring ISLs) cells run far ahead of the old window, collapsing the round
// count.
//
// Mechanics per round: limits are computed, and the active set — cells
// holding an event below their limit — runs either inline or on the
// persistent worker pool, each runner taking a fixed contiguous share of
// the ascending active list. A cell's run starts by injecting its inbox
// and ends by publishing its next-event time. At the barrier the runner
// appends every message the ran cells emitted to its destination cell's
// inbox, lowers the destination's next-event key to the message's
// arrival time, and reads the new minimum key.
//
// Determinism contract: the round structure, the per-cell limits, the
// per-cell RNG streams (par.ForkSeed(Seed, cell)), and the message
// delivery order (ascending source cell, then emission order within a
// cell) are all pure functions of the config — never of Config.Shards,
// which only caps how many goroutines advance cells concurrently.
// Results are byte-identical for any shard count.
//
// Arrival-time order is never imposed, because no output can observe
// it: inject gives a cell's inbox consecutive sequence numbers, above
// every event already queued in that cell and below every event it
// pushes later, and each cell pops by (at, seq). So reordering the inbox
// changes the pop order only among messages with equal at, and those
// pop in delivery order — the order a stable sort by arrival time would
// also keep. A cell pushes nothing between two of its runs, so injecting
// the inbox when the cell next runs numbers every message as injecting
// it at each barrier would. Messages still in an inbox when the run ends
// arrive past the horizon.

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"sudc/internal/degrade"
	"sudc/internal/faults"
	"sudc/internal/obs/window"
	"sudc/internal/par"
	"sudc/internal/placement"
	"sudc/internal/units"
)

// cellEdge is one directed cell-graph edge in simulator units.
type cellEdge struct {
	cell  int
	delay float64 // min cross-cell propagation delay, s
}

// limEntry is one tentative settle time queued in a solver bucket.
type limEntry struct {
	at   float64
	cell int32
	next int32 // next entry of the same bucket, −1 at the end
}

// shardRunner drives one topology run: the per-cell simulators and the
// synchronization state. A cross-cell message waits in its source
// cell's outbox from emission to the round's barrier, then in its
// destination cell's inbox until that cell next runs. Runners are kept
// in runnerPool between runs, with every array below; the inboxes are
// kept with the simulators.
type shardRunner struct {
	c    Config
	sims []*simulator

	horizon  float64
	hasCross bool
	eff      int // goroutines advancing cells

	// Lookahead state. Cell u's outgoing cross-cell edges are
	// edges[edgeAt[u]:edgeAt[u+1]]. key holds every cell's next-event
	// time, its inbox included, and tmin their minimum. The limit stamps
	// (lstamp) are versioned by round so no per-round O(cells) clearing
	// is needed. est, bucket and ents are computeLimits' scratch.
	edges  []cellEdge
	edgeAt []int32
	dmin   float64 // smallest cross-cell delay: the solver's bucket width
	perD   float64 // 1/dmin
	key    []float64
	tmin   float64
	limit  []float64
	lstamp []int
	finalC []bool
	est    []float64 // tentative (then settled) T per cell
	bucket []int32   // head entry of each bucket, −1 when empty
	lastB  int       // highest bucket holding an entry
	ents   []limEntry
	active []int // cells to run this round, ascending
	round  int

	// Persistent worker pool (lazy; see runActiveCells). Helper h runs
	// share h+1 of every round's active list and the caller share 0.
	// Each helper holds one slot of the par budget until stopPool.
	started bool
	helpers int
	pool    *handoff

	syncStats SyncStats

	// winM merges per-cell window fragments at the cross-cell watermark
	// (nil when Config.Window is zero); winNext is the next window
	// boundary to cross, so rounds between boundaries skip the flush.
	winM    *window.Merger
	winNext float64

	weights []int // per-cell worker counts, for merging
	linksN  []int // per-cell link counts

	// Merged latency samples, kept across runs (finish).
	allLat  []float64
	tierLat [placement.NumTiers][]float64
}

// runnerPool keeps finished runners, so a run reuses the solver
// scratch and merged latency buffers of an earlier one.
var runnerPool freeList[*shardRunner]

// newShardRunner builds the per-cell simulators. A single-cell
// topology runs on the root seed with no observability scoping and
// shares the runner's window merger, flushing windows live at each
// event instead of buffering fragments until a round ends; multi-cell
// topologies fork one seed, obs scope, and trace child ("c%03d") per
// cell.
func newShardRunner(c Config, plans []cellPlan, deg *degrade.Schedule) (*shardRunner, error) {
	n := len(plans)
	r, ok := runnerPool.get()
	if !ok {
		r = new(shardRunner)
	}
	r.reset(c, n)
	if n > 1 {
		outT, _ := c.Topology.CellGraph()
		for i, row := range outT {
			r.edgeAt[i] = int32(len(r.edges))
			for _, e := range row {
				r.edges = append(r.edges, cellEdge{cell: e.Cell, delay: e.Delay.Seconds()})
			}
		}
	}
	r.sealEdges()
	if c.Window > 0 {
		r.winM = window.NewMerger(c.Window.Seconds(), c.OnWindow)
		r.winNext = c.Window.Seconds()
	}
	r.eff = c.Shards
	if r.eff <= 0 {
		r.eff = par.DefaultWorkers()
	}
	if r.eff > n {
		r.eff = n
	}
	// More runners than schedulable cores is pure scheduler churn —
	// results are shard-invariant, so the cap costs nothing. The par
	// budget may cap the pool further when it starts.
	if maxp := runtime.GOMAXPROCS(0); r.eff > maxp {
		r.eff = maxp
	}
	multi := n > 1
	for i := range plans {
		p := &plans[i]
		cc := c
		if multi {
			cc.Seed = par.ForkSeed(c.Seed, i)
			if c.Obs != nil {
				cc.Obs = c.Obs.Scope(fmt.Sprintf("c%03d", i))
			}
			if c.Trace != nil {
				cc.Trace = c.Trace.Child(fmt.Sprintf("c%03d", i))
			}
		}
		// The shared degradation schedule modulates every cell's SEFI
		// stream through the same envelope; each cell still forks its own
		// per-node RNG streams from its cell seed.
		sched, err := faults.BuildModulated(c.Faults, p.workers, len(p.links), c.Duration, cc.Seed, deg.FaultEnvelope())
		if err != nil {
			for _, s := range r.sims {
				putSim(s)
			}
			return nil, err
		}
		s := getSim()
		r.sims = append(r.sims, s)
		s.resetTopo(cc, p, sched, deg, i, n)
		if !multi {
			s.winM = r.winM
		}
		r.weights[i] = p.workers
		r.linksN[i] = len(p.links)
		r.key[i] = s.nextAt()
	}
	r.tmin = minKey(r.key)
	return r, nil
}

// sealEdges closes the last cell's edge row and derives the solver's
// bucket width from the edges.
func (r *shardRunner) sealEdges() {
	n := len(r.edgeAt) - 1
	r.edgeAt[n] = int32(len(r.edges))
	r.hasCross = len(r.edges) > 0
	r.dmin = math.Inf(1)
	for _, e := range r.edges {
		r.dmin = math.Min(r.dmin, e.delay)
	}
	r.perD = 1 / r.dmin
}

// reset sizes a fresh or recycled runner for n cells, keeping every
// backing array that is large enough.
func (r *shardRunner) reset(c Config, n int) {
	r.c = c
	r.horizon = c.Duration.Seconds()
	r.sims = r.sims[:0]
	r.edges = r.edges[:0]
	r.edgeAt = resize(r.edgeAt, n+1)
	clear(r.edgeAt)
	r.weights = resize(r.weights, n)
	r.linksN = resize(r.linksN, n)
	r.key = resize(r.key, n)
	r.limit = resize(r.limit, n)
	r.est = resize(r.est, n)
	r.lstamp = resize(r.lstamp, n)
	clear(r.lstamp)
	r.finalC = resize(r.finalC, n)
	r.bucket = resize(r.bucket, n)
	r.ents = r.ents[:0]
	r.active = r.active[:0]
	r.round = 0
	r.started, r.helpers = false, 0
	r.syncStats = SyncStats{}
	r.winM, r.winNext = nil, 0
}

// minKey returns the minimum of keys (+Inf when empty). Keys are never
// NaN, so the plain compare suffices; slices.Min, which orders NaNs,
// took three times as long over 64 keys.
func minKey(keys []float64) float64 {
	m := math.Inf(1)
	for _, k := range keys {
		if k < m {
			m = k
		}
	}
	return m
}

// arenaBytes is the capacity of the runner's run-sized arrays, in
// bytes: runnerPool hands out the largest.
func (r *shardRunner) arenaBytes() int {
	n := cap(r.allLat)
	for t := range r.tierLat {
		n += cap(r.tierLat[t])
	}
	return 8 * n
}

// release returns the runner to runnerPool, dropping the references it
// holds to the finished run.
func (r *shardRunner) release() {
	clear(r.sims)
	r.c = Config{}
	r.winM = nil
	runnerPool.put(r, r.arenaBytes())
}

// window advances the active cells through one synchronization round
// and delivers the cross-cell frames they produced. It returns false
// once no cell holds an event within the horizon.
func (r *shardRunner) window() bool {
	r.round++
	if r.tmin > r.horizon {
		return false
	}
	r.computeLimits()
	r.buildActive()
	if len(r.active) == 0 {
		// Unreachable while tmin ≤ horizon (the tmin cell's limit
		// exceeds tmin by its positive min incoming delay), but kept as
		// a termination backstop.
		return false
	}
	r.runActiveCells()
	r.deliver()
	r.flushWindows()
	return true
}

// deliver is the round's barrier, single-threaded. It keys every ran
// cell by the next-event time the cell published, then appends every
// outbox of the ran cells to its destination's inbox, in ascending
// source cell order and emission order within a cell, and lowers the
// destination's key to each message's arrival time. The destination
// injects its inbox when it next runs, and a source empties its outbox
// when it next runs, so the barrier writes no ran cell's state.
func (r *shardRunner) deliver() {
	for _, c := range r.active {
		r.key[c] = r.sims[c].pubAt
	}
	for _, c := range r.active {
		out := r.sims[c].outbox
		for _, m := range out {
			d := r.sims[m.cell]
			d.inbox = append(d.inbox, m)
			if m.at < r.key[m.cell] {
				r.key[m.cell] = m.at
			}
		}
		r.syncStats.CrossMsgs += len(out)
	}
	r.tmin = minKey(r.key)
}

// limitOf returns cell i's run limit for this round (+Inf when no
// settled neighbor relaxed it).
func (r *shardRunner) limitOf(i int) float64 {
	if r.lstamp[i] == r.round {
		return r.limit[i]
	}
	return math.Inf(1)
}

// computeLimits solves the lookahead fixpoint for the round (see the
// package comment) and records each cell's earliest possible incoming
// message as its neighbors settle. A cell settles when est holds its T
// and T ≤ horizon; cells whose T lies past the horizon never settle and
// contribute to no limit.
//
// The solver is a bucketed label-correcting pass (Δ-stepping). Bucket b
// holds the tentative times in [tmin + b·dmin, tmin + (b+1)·dmin), the
// last bucket everything beyond. The buckets drain in ascending order,
// each until it is empty, and a cell relaxed by a drained entry is
// queued again at its lower time. The bucket index never decreases with
// the time, so once a bucket is empty no later entry can lower a time
// in it, and every cell's est ends at its fixpoint T — the minimum over
// paths, which any exact shortest-path order reaches. A relaxation adds
// at least dmin, so it lands in a later bucket (up to rounding, or in
// the last bucket), and almost every cell is drained exactly once: no
// cell order within a bucket is needed.
func (r *shardRunner) computeLimits() {
	if !r.hasCross {
		return
	}
	for b := range r.bucket {
		r.bucket[b] = -1
	}
	r.ents, r.lastB = r.ents[:0], 0
	for u, k := range r.key {
		r.est[u] = k
		if k <= r.horizon {
			r.enqueue(u, k)
		}
	}
	for b := 0; b <= r.lastB; b++ {
		for e := r.bucket[b]; e >= 0; e = r.bucket[b] {
			en := r.ents[e]
			r.bucket[b] = en.next
			u := int(en.cell)
			if en.at != r.est[u] {
				continue // superseded by a lower time queued later
			}
			for _, ed := range r.edges[r.edgeAt[u]:r.edgeAt[u+1]] {
				v, cand := ed.cell, en.at+ed.delay
				if r.lstamp[v] != r.round || cand < r.limit[v] {
					r.lstamp[v] = r.round
					r.limit[v] = cand
				}
				if cand < r.est[v] && cand <= r.horizon {
					r.est[v] = cand
					r.enqueue(v, cand)
				}
			}
		}
	}
}

// enqueue queues cell u's tentative time at in its bucket.
func (r *shardRunner) enqueue(u int, at float64) {
	b := len(r.bucket) - 1
	if f := (at - r.tmin) * r.perD; f < float64(b) {
		b = int(f)
	}
	r.lastB = max(r.lastB, b)
	r.ents = append(r.ents, limEntry{at: at, cell: int32(u), next: r.bucket[b]})
	r.bucket[b] = int32(len(r.ents) - 1)
}

// buildActive selects the cells to run this round — every cell holding
// an event below its limit (idle and drained cells are skipped) — and
// fixes each one's run limit and final flag. A cell with an event
// within the horizon has T ≤ next ≤ horizon, so it has settled. The
// list is in ascending cell order, the order the barrier delivers
// outboxes in.
func (r *shardRunner) buildActive() {
	r.active = r.active[:0]
	for u, nx := range r.key {
		if nx > r.horizon {
			continue
		}
		if lim := r.limitOf(u); lim >= r.horizon {
			r.limit[u], r.lstamp[u], r.finalC[u] = r.horizon, r.round, true
		} else if nx < lim {
			r.finalC[u] = false
		} else {
			continue
		}
		r.active = append(r.active, u)
	}
	r.syncStats.Rounds++
	r.syncStats.CellRuns += len(r.active)
	for _, u := range r.active {
		w := r.limit[u]
		if w > r.horizon {
			w = r.horizon
		}
		r.syncStats.LookaheadSum += w - r.tmin
	}
}

// runActiveCells advances every active cell to its limit. With one
// effective shard (or one active cell) the loop runs inline; otherwise
// the round is handed to the persistent helpers, and every runner
// advances its own share. A cell writes only its own state, so nothing
// is shared until the barrier.
func (r *shardRunner) runActiveCells() {
	if r.eff > 1 && len(r.active) > 1 && !r.started {
		r.startPool()
	}
	if r.eff <= 1 || len(r.active) == 1 {
		for _, c := range r.active {
			r.runCell(c)
		}
		return
	}
	e := r.pool.epoch.Add(1)
	for i := range r.pool.park {
		r.pool.park[i].signal()
	}
	r.runShare(0)
	r.pool.caller.wait(&r.pool.done, e*int64(r.helpers))
}

// runCell executes one cell's round: it empties the outbox the last
// barrier read, injects the messages that reached the cell since its
// last run, in delivery order, advances the cell to its limit, and
// publishes its next-event time.
func (r *shardRunner) runCell(c int) {
	s := r.sims[c]
	s.outbox = s.outbox[:0]
	for _, m := range s.inbox {
		s.inject(m)
	}
	s.inbox = s.inbox[:0]
	s.runUntil(r.limit[c], r.finalC[c])
	s.pubAt = s.nextAt()
}

// runShare runs share w of the ascending active list: the w-th of eff
// contiguous slices, so each runner keeps advancing about the same
// cells round after round.
func (r *shardRunner) runShare(w int) {
	n := len(r.active)
	for _, c := range r.active[w*n/r.eff : (w+1)*n/r.eff] {
		r.runCell(c)
	}
}

// spinFor bounds how long a runner polls for its next hand-off before
// it parks. A round's serial bookkeeping and the gap between two
// runners' shares end well inside it, so a busy run never parks; a
// longer gap (a run inside a busy par item, a descheduled runner)
// parks instead of taking CPU time from the runner it waits for.
const spinFor = 100 * time.Microsecond

// handoff is the pool's round protocol. The caller publishes a round by
// advancing epoch after writing its active list, limits and inboxes;
// each helper runs its share and advances done, and the helper that
// completes the round wakes the caller. Both sides spin, then park.
type handoff struct {
	epoch  atomic.Int64 // rounds handed to the helpers
	_      [56]byte     // epoch and done on separate lines: each side polls the one the other writes
	done   atomic.Int64 // helper shares finished, over all rounds
	quit   bool         // the round stopPool publishes
	caller parker
	park   []parker // one per helper
}

// parker parks one goroutine that waits for a counter to reach a
// target, until the goroutine that advances the counter signals it.
type parker struct {
	asleep atomic.Bool
	wake   chan struct{} // carries the one token of a claimed sleep
}

// wait returns once ctr ≥ want: it polls for spinFor, reading the
// clock every 256 polls, then parks. A sleeper either withdraws its own
// sleep or takes the token of the signal that claimed it, so a token
// never outlives its sleep.
func (p *parker) wait(ctr *atomic.Int64, want int64) {
	if ctr.Load() >= want {
		return
	}
	start := time.Now()
	for i := 1; ctr.Load() < want; i++ {
		if i&255 != 0 || time.Since(start) < spinFor {
			continue
		}
		p.asleep.Store(true)
		if ctr.Load() >= want && p.asleep.CompareAndSwap(true, false) {
			return
		}
		<-p.wake
	}
}

// signal wakes the waiter if it parked. Call it after advancing the
// counter: either the waiter sees the new count before it sleeps, or
// signal sees it asleep.
func (p *parker) signal() {
	if p.asleep.Load() && p.asleep.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
	}
}

// startPool takes up to eff−1 helper slots from the par budget
// without waiting and starts one persistent helper per slot (the
// caller's goroutine is the other runner). A run started while every
// slot is busy — a sharded run inside a busy par item — gets no helper
// and runs its cells inline.
func (r *shardRunner) startPool() {
	r.started = true
	k := par.AcquireHelpers(r.eff - 1)
	r.eff, r.helpers = k+1, k
	if k == 0 {
		return
	}
	r.pool = &handoff{park: make([]parker, k)}
	r.pool.caller.wake = make(chan struct{}, 1)
	for h := range r.pool.park {
		r.pool.park[h].wake = make(chan struct{}, 1)
		go r.helper(h)
	}
}

// helper is helper h's loop: wait for the next round, run share h+1,
// report it done. It returns at the round stopPool publishes.
func (r *shardRunner) helper(h int) {
	p := r.pool
	k := int64(r.helpers)
	for e := int64(1); ; e++ {
		p.park[h].wait(&p.epoch, e)
		quit := p.quit // read before done: a finished round lets stopPool write it
		if !quit {
			r.runShare(h + 1)
		}
		if p.done.Add(1) == e*k {
			p.caller.signal()
		}
		if quit {
			return
		}
	}
}

// stopPool retires the helpers, waits until each has left its loop,
// and returns their slots to the par budget.
func (r *shardRunner) stopPool() {
	if !r.started {
		return
	}
	r.started = false
	if r.helpers == 0 {
		return
	}
	r.pool.quit = true
	e := r.pool.epoch.Add(1)
	for i := range r.pool.park {
		r.pool.park[i].signal()
	}
	r.pool.caller.wait(&r.pool.done, e*int64(r.helpers))
	par.ReleaseHelpers(r.helpers)
	r.pool = nil
}

// flushWindows advances every cell's window collector to the
// cross-cell watermark — the minimum next event time over all cells,
// capped at the horizon — and folds the closed fragments into the
// merger. A message in flight waits in its destination's inbox, and
// the destination's key already covers its arrival time, so the
// minimum key covers it. Below the watermark every cell's environment
// is provably constant (its own next event and every message that
// could perturb it lie at or beyond it), so the advance is exact.
// Rounds whose watermark has not crossed the next window boundary skip
// the O(cells) drain entirely: the fragments fold identically once the
// boundary is crossed, because each cell's occupancy between its own
// events is constant. The watermark and the cell drain order are pure
// functions of the config, never of Config.Shards, so the merged
// window stream inherits the byte-identity contract.
func (r *shardRunner) flushWindows() {
	if r.winM == nil {
		return
	}
	wm := r.tmin
	if wm > r.horizon {
		wm = r.horizon
	}
	if wm < r.winNext {
		return
	}
	for _, s := range r.sims {
		s.advanceWindows(wm)
		for _, f := range s.win.Drain() {
			r.winM.Add(f)
		}
	}
	r.winM.Flush(wm)
	width := r.c.Window.Seconds()
	r.winNext = (math.Floor(wm/width) + 1) * width
}

// finish retires the worker pool, closes every cell, and merges the
// per-cell Stats: frame counters sum, availability-style fractions
// average weighted by worker count (so worker-less relay cells drop
// out), ISL utilization averages weighted by link count, and the
// latency distribution is recomputed over the merged samples.
func (r *shardRunner) finish() Stats {
	r.stopPool()
	if len(r.sims) == 1 {
		// Single cell: the cell's stats ARE the run's stats. Bypassing
		// the weighted merge keeps them exact (x*w/w is not an exact
		// float identity).
		s := r.sims[0]
		cs := s.finish()
		s.closeWindows(r.winM)
		putSim(s)
		r.sealWindows()
		return cs
	}
	// Size the merged latency buffers once; a cell's finish adds no
	// samples.
	nLat, nTier := 0, [placement.NumTiers]int{}
	for _, s := range r.sims {
		nLat += len(s.latencies)
		for t := range s.tierLats {
			nTier[t] += len(s.tierLats[t])
		}
	}
	allLat := growFloats(r.allLat, nLat)
	tierLat := &r.tierLat
	for t := range tierLat {
		tierLat[t] = growFloats(tierLat[t], nTier[t])
	}
	var placeCost float64
	var out Stats
	var availW, degW, wuW, islW, rateW float64
	totalWorkers, totalLinks := 0, 0
	out.MeanRateMult = 1
	for i, s := range r.sims {
		cs := s.finish()
		w := float64(r.weights[i])
		out.FramesGenerated += cs.FramesGenerated
		out.FramesProcessed += cs.FramesProcessed
		out.InsightsDownlinked += cs.InsightsDownlinked
		out.FramesRetried += cs.FramesRetried
		out.FramesRedispatched += cs.FramesRedispatched
		out.FramesShed += cs.FramesShed
		out.FramesLost += cs.FramesLost
		out.CrossShardFrames += cs.CrossShardFrames
		out.ComputeEnergy += cs.ComputeEnergy
		out.WorkerDowntime += cs.WorkerDowntime
		out.ISLDowntime += cs.ISLDowntime
		if cs.MaxInputQueue > out.MaxInputQueue {
			out.MaxInputQueue = cs.MaxInputQueue
		}
		out.BatchesDeferred += cs.BatchesDeferred
		// Every cell replays the same wall-clock degradation schedule, so
		// throttle/brownout time is a max, not a sum (worker-less relay
		// cells report zero brownout time and drop out).
		if cs.ThrottledTime > out.ThrottledTime {
			out.ThrottledTime = cs.ThrottledTime
		}
		if cs.BrownoutTime > out.BrownoutTime {
			out.BrownoutTime = cs.BrownoutTime
		}
		rateW += cs.MeanRateMult * w
		availW += cs.Availability * w
		degW += cs.DegradedFraction * w
		wuW += cs.WorkerUtilization * w
		islW += cs.ISLUtilization * float64(r.linksN[i])
		totalWorkers += r.weights[i]
		totalLinks += r.linksN[i]
		allLat = append(allLat, s.latencies...)
		if s.place != nil {
			// The per-tier latency distributions are recomputed over the
			// merged samples, exactly like the global distribution.
			for t := range s.tierLats {
				out.TierFrames[t] += cs.TierFrames[t]
				out.TierDollars[t] += cs.TierDollars[t]
				tierLat[t] = append(tierLat[t], s.tierLats[t]...)
			}
			placeCost += s.placeCostSum
			out.OracleMeanCost = cs.OracleMeanCost
		}
		s.closeWindows(r.winM)
		putSim(s)
	}
	r.allLat = allLat
	r.sealWindows()
	// A frame that crossed cells counts +1 in its producer's generated
	// and −1 via its consumer's processed/shed/lost, so the global sum
	// is the true in-flight backlog.
	out.Backlog = out.FramesGenerated - out.FramesProcessed - out.FramesShed - out.FramesLost
	if totalWorkers > 0 {
		out.Availability = units.Clamp(availW/float64(totalWorkers), 0, 1)
		out.DegradedFraction = units.Clamp(degW/float64(totalWorkers), 0, 1)
		out.WorkerUtilization = units.Clamp(wuW/float64(totalWorkers), 0, 1)
		out.MeanRateMult = rateW / float64(totalWorkers)
	}
	if totalLinks > 0 {
		out.ISLUtilization = units.Clamp(islW/float64(totalLinks), 0, 1)
	}
	if len(allLat) > 0 {
		// The merged samples are concatenated in cell order — a pure
		// function of the config — so the mean sum is deterministic, and
		// the p95 is the same order statistic a full sort would index.
		var sum float64
		for _, l := range allLat {
			sum += l
		}
		out.MeanLatency = time.Duration(sum / float64(len(allLat)) * float64(time.Second))
		p95 := selectKth(allLat, int(float64(len(allLat))*0.95))
		out.P95Latency = time.Duration(p95 * float64(time.Second))
	}
	if r.c.Placement != nil {
		summarizeTiers(&out, tierLat, placeCost)
	}
	out.KeptUp = out.Backlog <= 2*r.c.BatchSize*totalWorkers
	out.Sync = r.syncStats
	return out
}

// growFloats empties a, keeping its backing array when it holds n.
func growFloats(a []float64, n int) []float64 {
	if cap(a) >= n {
		return a[:0]
	}
	return make([]float64, 0, n)
}

// sealWindows flushes the trailing windows (including a partial one)
// after every cell has closed.
func (r *shardRunner) sealWindows() {
	if r.winM != nil {
		r.winM.Flush(math.Inf(1))
	}
}

// selectKth returns the k-th smallest element (0-indexed) of a,
// partially partitioning a in place — the merged-latency p95 without
// the O(n log n) full sort. Median-of-three pivoting with a Hoare
// partition; the selected order statistic is identical to sorting and
// indexing, so the result is deterministic regardless of the
// partition path.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		p := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return a[k]
		}
	}
	return a[k]
}

// runTopology executes a configuration over its compiled graph.
func runTopology(c Config) (Stats, error) {
	plans, err := compile(c.Topology)
	if err != nil {
		return Stats{}, err
	}
	deg, err := buildDegrade(c)
	if err != nil {
		return Stats{}, err
	}
	r, err := newShardRunner(c, plans, deg)
	if err != nil {
		return Stats{}, err
	}
	for r.window() {
	}
	stats := r.finish()
	if r.winM != nil {
		emitSLO(c, r.winM.Windows())
	}
	r.release()
	return stats, nil
}
