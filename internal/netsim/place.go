package netsim

// Multi-tier compute placement inside the DES: when Config.Placement is
// set, every captured frame is routed at capture time to one of the
// four placement tiers. The space tier is the ISL/batch pipeline
// untouched; the other three are modeled as FIFO server queues with
// constant service times — a derated flight computer per satellite
// (onboard), a finite premium GPU pool behind the shared downlink
// (ground edge), and an elastic pool behind the downlink plus WAN
// (cloud). Because every tier's service time is a per-run constant,
// in-service frames complete in dispatch order, so one serving deque
// per tier replaces per-server state and the engine stays
// allocation-free in steady state.
//
// Determinism contract: routing decisions are pure functions of the
// priced model and the observed queue lengths — no RNG draws, no seed
// events — and the new event kinds are appended after the pipeline ones.
// A Static-to-space policy therefore replays the placement-free event
// sequence bit for bit; the only deltas are the placement-only Stats
// fields and the "placed" trace lines.

import (
	"sort"
	"time"

	"sudc/internal/obs/latency"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
	"sudc/internal/placement"
)

// setPlacement installs the (possibly nil) placement engine. Must run
// after resetCommon (it keys on frameBits) and after totalSats is
// known; cells is the topology cell count the shared downlink rate is
// split across (1 for the star).
func (s *simulator) setPlacement(pc *placement.Config, cells int) {
	s.place = pc
	if pc == nil {
		return
	}
	s.pmodel = pc.Model
	if cells < 1 {
		cells = 1
	}
	s.dlSendTime = s.frameBits / pc.Ratio() / (float64(pc.DownlinkRate) / float64(cells))
	s.accessDelay = pc.AccessDelay.Seconds()
	s.wanDelay = pc.WANDelay.Seconds()
	s.onboardSvc = pc.Model.Tiers[placement.TierOnboard].ServiceTime
	s.edgeSvc = pc.Model.Tiers[placement.TierGroundEdge].ServiceTime
	s.cloudSvc = pc.Model.Tiers[placement.TierCloud].ServiceTime
	// One flight computer per satellite; the cell's onboard capacity is
	// its satellite population (the pool approximation: any satellite's
	// computer can serve, which upper-bounds the per-satellite truth).
	s.onboardServers = s.totalSats
	// The zero-queue base tier: where the policy sends a frame when no
	// queue pressures it elsewhere. Decide draws no RNG, so probing it
	// here leaves the run's stream untouched; a routing that deviates
	// from the base is a queue-aware spillover.
	s.placeBase = pc.Policy.Decide(pc.Model, placement.State{}).Tier
}

// route runs the placement decision for one captured frame and starts
// it down its tier's path.
func (s *simulator) route(f frame, sat int) {
	d := s.place.Policy.Decide(s.pmodel, placement.State{QueueLen: s.queueLen})
	f.tier = int8(d.Tier)
	s.queueLen[d.Tier]++
	cause := ""
	if d.Tier != s.placeBase {
		cause = "spill"
		s.win.Count(window.CntSpilled, 1)
	}
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.Placed, Frame: f.id,
			Node: sat, Tier: d.Tier.String(), Cause: cause})
	}
	switch d.Tier {
	case placement.TierSpace:
		// The SµDC pipeline, frame tagged: ISL queue, batcher, workers.
		ei := s.satEdge[sat]
		s.links[ei].queue.pushBack(f)
		s.attemptISL(ei)
	case placement.TierOnboard:
		if s.onboardBusy < s.onboardServers {
			s.onboardBusy++
			s.startPlaced(&s.onboardRun, f, evOnboardDone, s.onboardSvc)
		} else {
			s.onboardQ.pushBack(f)
		}
	default: // ground-bound: the shared downlink first
		s.dlQueue.pushBack(f)
		s.attemptDownlink()
	}
}

// startPlaced begins constant-time service for a placed frame: it
// joins the tier's FIFO serving deque and its completion event fires
// svc seconds later. Dispatched is recorded with Node -1 — tier
// servers are not SµDC workers.
func (s *simulator) startPlaced(run *frameDeque, f frame, kind int, svc float64) {
	run.pushBack(f)
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.Dispatched, Frame: f.id, Node: -1})
	}
	s.push(event{at: s.now + svc, kind: kind})
}

// attemptDownlink starts the shared downlink's head-frame transmission.
// The downlink is a single-server queue: the cell's share of the
// constellation's deliverable ground rate serves ground-bound frames
// one at a time, which is where downlink contention shows up as
// queueing latency.
func (s *simulator) attemptDownlink() {
	if s.dlSending || s.dlQueue.len() == 0 {
		return
	}
	s.dlSending = true
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.ISLSendStart,
			Frame: s.dlQueue.front().id, Node: -1, Edge: "downlink"})
	}
	s.push(event{at: s.now + s.dlSendTime, kind: evDownlinkDone})
}

// downlinkDone lands the transmitted frame on the ground: it continues
// to its tier after the constant access (+ WAN for cloud) delay. The
// mean pass-access wait is applied after transmission; for a constant
// delay this is interchangeable with a pre-transmission wait — it
// shifts every downlink busy period by the same amount without
// changing any queueing wait.
func (s *simulator) downlinkDone() {
	f := s.dlQueue.popFront()
	s.dlSending = false
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.ISLSendEnd, Frame: f.id,
			Node: -1, Edge: "downlink"})
	}
	if placement.Tier(f.tier) == placement.TierCloud {
		s.cloudWait.pushBack(f)
		s.push(event{at: s.now + s.accessDelay + s.wanDelay, kind: evCloudArrive})
	} else {
		s.edgeWait.pushBack(f)
		s.push(event{at: s.now + s.accessDelay, kind: evEdgeArrive})
	}
	s.attemptDownlink()
}

// completePlaced finishes a frame computed off the SµDC path: latency,
// per-tier accounting, and the analyzer's insight decision replayed
// from the value drawn at capture.
func (s *simulator) completePlaced(f frame) {
	lat := s.now - f.born
	s.stats.FramesProcessed++
	s.win.Count(window.CntProcessed, 1)
	s.latencies = append(s.latencies, lat)
	s.win.Latency(lat)
	if s.rec != nil {
		s.rec.latency.Observe(lat)
	}
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.ComputeEnd, Frame: f.id, Node: -1})
	}
	s.accountTier(placement.Tier(f.tier), lat)
	if f.value >= 1-s.c.InsightFraction {
		s.stats.InsightsDownlinked++
		s.win.Count(window.CntInsights, 1)
		if s.tr != nil {
			s.tr.Record(trace.Event{T: s.now, Kind: trace.Downlinked, Frame: f.id, Node: -1})
		}
	}
}

// accountTier records one completed frame's tier outcome. The realized
// per-frame cost is the tier's amortized dollars plus the
// latency-weighted end-to-end latency — which is what makes the Oracle
// floor a provable lower bound: realized latency ≥ the load-free
// transport+service floor the static cost prices.
func (s *simulator) accountTier(t placement.Tier, lat float64) {
	s.queueLen[t]--
	s.tierFrames[t]++
	s.tierLats[t] = append(s.tierLats[t], lat)
	d := s.pmodel.Tiers[t].DollarsPerFrame
	s.tierDollars[t] += d
	s.placeCostSum += d + s.pmodel.LatencyWeight*lat
	s.win.Cost(d + s.pmodel.LatencyWeight*lat)
}

// finishPlacement assembles the per-tier Stats at the end of a run.
func (s *simulator) finishPlacement(stats *Stats) {
	for t := range s.tierLats {
		stats.TierFrames[t] = s.tierFrames[t]
		stats.TierDollars[t] = s.tierDollars[t]
		v := s.tierLats[t]
		if len(v) == 0 {
			continue
		}
		sort.Float64s(v)
		var sum float64
		for _, l := range v {
			sum += l
		}
		stats.TierMeanLatency[t] = time.Duration(sum / float64(len(v)) * float64(time.Second))
		stats.TierP99Latency[t] = time.Duration(latency.Quantile(v, 0.99) * float64(time.Second))
	}
	if stats.FramesProcessed > 0 {
		stats.PlacedMeanCost = s.placeCostSum / float64(stats.FramesProcessed)
	}
	stats.OracleMeanCost = s.pmodel.OracleCost()
}
