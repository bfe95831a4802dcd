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
	"math"

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
	// One flight computer per satellite; the cell's onboard capacity is
	// its satellite population (the pool approximation: any satellite's
	// computer can serve, which upper-bounds the per-satellite truth).
	// The elastic cloud never queues.
	s.tierServers[placement.TierOnboard] = s.totalSats
	s.tierServers[placement.TierGroundEdge] = pc.EdgeServers
	s.tierServers[placement.TierCloud] = math.MaxInt
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
		s.deliver(s.satEdge[sat], f)
	case placement.TierOnboard:
		s.serve(placement.TierOnboard, f)
	default: // ground-bound: the shared downlink first
		s.dlQueue.pushBack(f)
		s.attemptDownlink()
	}
}

// tierDone is each server tier's completion event kind.
var tierDone = [placement.NumTiers]int{
	placement.TierOnboard:    evOnboardDone,
	placement.TierGroundEdge: evEdgeDone,
	placement.TierCloud:      evCloudDone,
}

// serve starts constant-time service for frame f on tier t if one of
// its servers is free, else queues it. A started frame joins the tier's
// FIFO serving deque and completes one service time later. Dispatched
// is recorded with Node -1 — tier servers are not SµDC workers.
func (s *simulator) serve(t placement.Tier, f frame) {
	if s.tierRun[t].len() >= s.tierServers[t] {
		s.tierQ[t].pushBack(f)
		return
	}
	s.tierRun[t].pushBack(f)
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.Dispatched, Frame: f.id, Node: -1})
	}
	s.push(s.now+s.pmodel.Tiers[t].ServiceTime, tierDone[t], int(t), 0)
}

// served completes tier t's oldest in-service frame and starts the
// next queued one on the freed server.
func (s *simulator) served(t placement.Tier) {
	s.complete(s.tierRun[t].popFront(), -1)
	if s.tierQ[t].len() > 0 {
		s.serve(t, s.tierQ[t].popFront())
	}
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
	s.push(s.now+s.dlSendTime, evDownlinkDone, 0, 0)
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
		s.push(s.now+s.accessDelay+s.wanDelay, evCloudArrive, 0, 0)
	} else {
		s.edgeWait.pushBack(f)
		s.push(s.now+s.accessDelay, evEdgeArrive, 0, 0)
	}
	s.attemptDownlink()
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

// finishPlacement assembles the per-tier Stats at the end of a run,
// apart from the tier latencies (summarizeLatency).
func (s *simulator) finishPlacement(stats *Stats) {
	stats.TierFrames = s.tierFrames
	stats.TierDollars = s.tierDollars
	stats.PlacedMeanCost = placedMeanCost(s.placeCostSum, stats.FramesProcessed)
	stats.OracleMeanCost = s.pmodel.OracleCost()
}

// placedMeanCost is the realized mean per-frame cost: the summed
// per-frame cost over the processed frames.
func placedMeanCost(costSum float64, processed int) float64 {
	if processed == 0 {
		return 0
	}
	return costSum / float64(processed)
}
