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
// fixpoint with a Dijkstra pass over the cell graph (all cells are
// sources, keyed next_i; cross-cell delays are validated positive) and
// sets each cell's run limit to
//
//	limit_i = min_j (T_j + d_ji)
//
// collected as the incoming neighbors j settle. By induction on the
// global event order, nothing cell j ever does happens before T_j, so
// no message can reach cell i before limit_i: i safely processes every
// event with at < limit_i this round. A cell whose limit reaches the
// horizon runs to it inclusively (runUntil's final round, which stops
// only at at > horizon); a cell with no incoming cross-cell edges has
// limit_i = +Inf and finishes in its first round. The fixpoint is never more
// conservative than the old global tmin + min-cross-delay window, and
// on graphs with heterogeneous delays (short FSO hops, long ring ISLs)
// cells run far ahead of the old window, collapsing the round count.
//
// Mechanics per round: limits are computed, and the active set — cells
// holding an event below their limit — runs either inline or on the
// persistent worker pool. At the barrier the runner injects every
// message the ran cells emitted straight into its destination cell's
// event heap and refreshes the tournament-tree keys the round changed.
//
// Determinism contract: the round structure, the per-cell limits, the
// per-cell RNG streams (par.ForkSeed(Seed, cell)), and the message
// delivery order (ascending source cell, then emission order within a
// cell) are all pure functions of the config — never of Config.Shards,
// which only caps how many goroutines advance cells concurrently.
// Results are byte-identical for any shard count.
//
// Arrival-time order is never imposed, because no output can observe
// it: inject gives one destination's batch consecutive sequence
// numbers, above every event already queued in that cell and below
// every event it pushes later, and each cell pops by (at, seq). So
// reordering a batch changes the pop order only among messages with
// equal at, and those pop in delivery order — the order a stable sort
// by arrival time would also keep.

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
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

// shardRunner drives one topology run: the per-cell simulators and the
// synchronization state. Cross-cell messages wait only in their source
// cell's outbox, from emission to the round's barrier.
type shardRunner struct {
	c    Config
	sims []*simulator

	horizon  float64
	hasCross bool
	eff      int // goroutines advancing cells

	// Lookahead state. next holds every cell's next-event time; dij is
	// the Dijkstra scratch tree of tentative output times. The stamp
	// arrays (done, lstamp) are versioned by round so no per-round
	// O(cells) clearing is needed.
	out    [][]cellEdge
	next   minTree
	dij    minTree
	limit  []float64
	lstamp []int
	finalC []bool
	done   []int
	popped []int
	mark   []uint64 // buildActive's cell bitset, all zero between rounds
	active []int    // cells to run this round, ascending
	round  int

	// Persistent worker pool (lazy; see runActiveCells). Workers pull
	// active-list indices off workIdx, so the per-round cost is one
	// channel send per worker instead of a goroutine spawn per cell.
	// Each worker holds one slot of the par budget until stopPool.
	started bool
	wake    []chan struct{}
	wg      sync.WaitGroup
	workIdx atomic.Int64

	syncStats SyncStats

	// winM merges per-cell window fragments at the cross-cell watermark
	// (nil when Config.Window is zero); winNext is the next window
	// boundary to cross, so rounds between boundaries skip the flush.
	winM    *window.Merger
	winNext float64

	weights []int // per-cell worker counts, for merging
	linksN  []int // per-cell link counts
}

// newShardRunner builds the per-cell simulators. A single-cell
// topology runs on the root seed with no observability scoping and
// shares the runner's window merger, flushing windows live at each
// event instead of buffering fragments until a round ends; multi-cell
// topologies fork one seed, obs scope, and trace child ("c%03d") per
// cell.
func newShardRunner(c Config, plans []cellPlan, deg *degrade.Schedule) (*shardRunner, error) {
	n := len(plans)
	r := &shardRunner{
		c:       c,
		horizon: c.Duration.Seconds(),
		sims:    make([]*simulator, 0, n),
		weights: make([]int, n),
		linksN:  make([]int, n),
		limit:   make([]float64, n),
		lstamp:  make([]int, n),
		finalC:  make([]bool, n),
		done:    make([]int, n),
		mark:    make([]uint64, (n+63)/64),
	}
	if n > 1 {
		outT, _ := c.Topology.CellGraph()
		r.out = make([][]cellEdge, n)
		for i, row := range outT {
			for _, e := range row {
				r.out[i] = append(r.out[i], cellEdge{cell: e.Cell, delay: e.Delay.Seconds()})
				r.hasCross = true
			}
		}
	}
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
	}
	r.next.reset(n)
	for i, s := range r.sims {
		r.next.update(i, s.nextAt())
	}
	return r, nil
}

// window advances the active cells through one synchronization round
// and delivers the cross-cell frames they produced. It returns false
// once no cell holds an event within the horizon.
func (r *shardRunner) window() bool {
	r.round++
	tmin := r.next.minKey()
	if tmin > r.horizon {
		return false
	}
	r.computeLimits()
	r.buildActive(tmin)
	if len(r.active) == 0 {
		// Unreachable while tmin ≤ horizon (the tmin cell's limit
		// exceeds tmin by its positive min incoming delay), but kept as
		// a termination backstop.
		return false
	}
	r.runActiveCells()
	r.deliverOutboxes()
	r.flushWindows()
	return true
}

// deliverOutboxes is the round's barrier, single-threaded: it injects
// every outbox of the ran cells into the destination cells, in
// ascending source cell order and emission order within a cell, and
// refreshes the next-event keys. A message can only pull its
// destination's next event earlier, to m.at, so that bound is exact
// for a cell that did not run; the cells that ran are re-read once
// every message has landed.
func (r *shardRunner) deliverOutboxes() {
	for _, c := range r.active {
		s := r.sims[c]
		for _, m := range s.outbox {
			r.sims[m.cell].inject(m)
			if m.at < r.next.key[m.cell] {
				r.next.update(m.cell, m.at)
			}
		}
		r.syncStats.CrossMsgs += len(s.outbox)
		s.outbox = s.outbox[:0]
	}
	for _, c := range r.active {
		r.next.update(c, r.sims[c].nextAt())
	}
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
// package comment): a Dijkstra pass over the cell graph keyed by
// next-event times, recording each cell's earliest possible incoming
// message as its neighbors settle. Cells settling past the horizon are
// cut off — their contributions cannot pull any limit below it.
func (r *shardRunner) computeLimits() {
	r.popped = r.popped[:0]
	if !r.hasCross {
		return
	}
	r.dij.loadFrom(&r.next)
	inf := math.Inf(1)
	for {
		u := r.dij.minLeaf()
		k := r.dij.key[u]
		if k > r.horizon {
			return
		}
		r.dij.update(u, inf)
		r.done[u] = r.round
		r.popped = append(r.popped, u)
		for _, e := range r.out[u] {
			cand := k + e.delay
			if r.lstamp[e.cell] != r.round || cand < r.limit[e.cell] {
				r.lstamp[e.cell] = r.round
				r.limit[e.cell] = cand
			}
			if r.done[e.cell] != r.round && cand < r.dij.key[e.cell] {
				r.dij.update(e.cell, cand)
			}
		}
	}
}

// buildActive selects the cells to run this round — every cell holding
// an event below its limit (idle and drained cells are skipped) — and
// fixes each one's run limit and final flag. The list is in ascending
// cell order, the order the barrier delivers outboxes in. Only cells
// settled by the Dijkstra pass can qualify, so on graphs with
// cross-cell edges the scan visits the settled cells and one bit per
// cell, never the full cell array.
func (r *shardRunner) buildActive(tmin float64) {
	r.active = r.active[:0]
	if !r.hasCross {
		// Independent cells: one final round runs each to the horizon.
		for i, s := range r.sims {
			if s.nextAt() <= r.horizon {
				r.limit[i], r.lstamp[i], r.finalC[i] = r.horizon, r.round, true
				r.active = append(r.active, i)
			}
		}
	} else {
		for _, u := range r.popped {
			lim := r.limitOf(u)
			nx := r.next.key[u]
			if lim >= r.horizon {
				if nx <= r.horizon {
					r.limit[u], r.lstamp[u], r.finalC[u] = r.horizon, r.round, true
					r.mark[u>>6] |= 1 << (u & 63)
				}
			} else if nx < lim {
				r.finalC[u] = false
				r.mark[u>>6] |= 1 << (u & 63)
			}
		}
		// Settle order is (T, cell); the barrier delivers in ascending
		// cell order. One ascending pass over the bitset collects the
		// marked cells in that order and clears the words it read.
		for w, m := range r.mark {
			if m == 0 {
				continue
			}
			for ; m != 0; m &= m - 1 {
				r.active = append(r.active, w<<6|bits.TrailingZeros64(m))
			}
			r.mark[w] = 0
		}
	}
	r.syncStats.Rounds++
	r.syncStats.CellRuns += len(r.active)
	for _, u := range r.active {
		w := r.limit[u]
		if w > r.horizon {
			w = r.horizon
		}
		r.syncStats.LookaheadSum += w - tmin
	}
}

// runActiveCells advances every active cell to its limit. With one
// effective shard (or one active cell) the loop runs inline; otherwise
// the persistent workers are woken and pull cells off the shared
// index. A cell writes only its own state and outbox, so nothing is
// shared until the barrier.
func (r *shardRunner) runActiveCells() {
	if r.eff <= 1 || len(r.active) == 1 {
		for _, c := range r.active {
			r.runCell(c)
		}
		return
	}
	if !r.started {
		r.startPool()
	}
	r.workIdx.Store(0)
	r.wg.Add(len(r.wake))
	for _, ch := range r.wake {
		ch <- struct{}{}
	}
	r.runShare()
	r.wg.Wait()
}

// runCell executes one cell's round.
func (r *shardRunner) runCell(c int) {
	r.sims[c].runUntil(r.limit[c], r.finalC[c])
}

// runShare drains active-list indices until the round's work is gone.
func (r *shardRunner) runShare() {
	for {
		i := int(r.workIdx.Add(1)) - 1
		if i >= len(r.active) {
			return
		}
		r.runCell(r.active[i])
	}
}

// startPool takes up to eff−1 helper slots from the par budget
// without waiting and spawns one persistent worker per slot (the
// caller's goroutine is the other runner). Each waits on its wake
// channel, runs its share of the active list, and signals the barrier
// WaitGroup. A run started while every slot is busy — a sharded run
// inside a busy par item — gets no worker and runs its cells inline.
func (r *shardRunner) startPool() {
	r.started = true
	k := par.AcquireHelpers(r.eff - 1)
	r.eff = k + 1
	if k == 0 {
		return
	}
	r.wake = make([]chan struct{}, k)
	for i := range r.wake {
		ch := make(chan struct{}, 1)
		r.wake[i] = ch
		go func() {
			for range ch {
				r.runShare()
				r.wg.Done()
			}
		}()
	}
}

// stopPool retires the persistent workers and returns their slots to
// the par budget.
func (r *shardRunner) stopPool() {
	if !r.started {
		return
	}
	for _, ch := range r.wake {
		close(ch)
	}
	par.ReleaseHelpers(len(r.wake))
	r.started = false
}

// flushWindows advances every cell's window collector to the
// cross-cell watermark — the minimum next event time over all cells,
// capped at the horizon — and folds the closed fragments into the
// merger. Messages in flight already sit in their destination cells'
// heaps, so the tree's minimum covers them. Below the watermark every
// cell's environment is provably constant (its own next event and
// every message that could perturb it lie at or beyond it), so the
// advance is exact. Rounds whose watermark has not crossed the next
// window boundary skip the O(cells) drain entirely: the fragments fold
// identically once the boundary is crossed, because each cell's
// occupancy between its own events is constant. The watermark and the
// cell drain order are pure functions of the config, never of
// Config.Shards, so the merged window stream inherits the
// byte-identity contract.
func (r *shardRunner) flushWindows() {
	if r.winM == nil {
		return
	}
	wm := r.next.minKey()
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
	allLat := make([]float64, 0, nLat)
	var tierLat [placement.NumTiers][]float64
	for t := range tierLat {
		tierLat[t] = make([]float64, 0, nTier[t])
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
		summarizeTiers(&out, &tierLat, placeCost)
	}
	out.KeptUp = out.Backlog <= 2*r.c.BatchSize*totalWorkers
	out.Sync = r.syncStats
	return out
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
	return stats, nil
}
