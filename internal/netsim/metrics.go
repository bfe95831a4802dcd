package netsim

import (
	"time"

	"sudc/internal/obs"
	"sudc/internal/obs/window"
	"sudc/internal/placement"
)

// sampleEvery is the simulated-time sampling period of the
// observability time series.
const sampleEvery = time.Minute

// backoffBuckets are the retry-backoff histogram bounds, in seconds. The
// latency histogram shares window.LatencyBounds, so windowed quantiles
// agree with the snapshot.
var backoffBuckets = []float64{0.001, 0.01, 0.1, 0.5, 1, 2, 5, 10, 30, 60, 120}

// eventNames maps event kinds to observability counter names.
var eventNames = [...]string{
	evFrameReady:   "events/frame_ready",
	evISLDone:      "events/isl_done",
	evBatchDone:    "events/batch_done",
	evBatchingOut:  "events/batch_timeout",
	evISLRetry:     "events/isl_retry",
	evOutageStart:  "events/outage_start",
	evOutageEnd:    "events/outage_end",
	evWorkerDeath:  "events/worker_death",
	evSEFIStart:    "events/sefi_start",
	evSEFIEnd:      "events/sefi_end",
	evArrive:       "events/arrive",
	evArriveMsg:    "events/arrive_msg",
	evPhase:        "events/phase",
	evOnboardDone:  "events/onboard_done",
	evDownlinkDone: "events/downlink_done",
	evEdgeArrive:   "events/edge_arrive",
	evCloudArrive:  "events/cloud_arrive",
	evEdgeDone:     "events/edge_done",
	evCloudDone:    "events/cloud_done",
}

// recorder writes one run's observability stream: per-event counters,
// the latency and retry-backoff histograms, and time series sampled on
// a fixed simulated-time grid. Because every sample is keyed to the
// simulated clock, a run's recorded stream is byte-identical for any
// process worker count — the determinism contract of PR 1/2 extends to
// the metrics.
type recorder struct {
	sim  *simulator
	next float64 // next grid point to sample, simulated seconds

	queueDepth *obs.Series
	islDepth   []*obs.Series // one per ISL edge, named "isl/<from>-<to>"
	backlog    *obs.Series
	effective  *obs.Series
	avail      *obs.Series
	// retried and shed are per-interval rate series: each sample is the
	// count of new retries/sheds since the previous grid point (the
	// README's "retry and shed rate" reading), so spikes localize to
	// their grid interval. Cumulative totals live in the frames/retried
	// and frames/shed counters; obs.Series.Rate inverts a legacy
	// cumulative recording.
	retried     *obs.Series
	shed        *obs.Series
	prevRetried int
	prevShed    int

	latency *obs.Histogram
	backoff *obs.Histogram

	// events counts applied events per kind.
	events [len(eventNames)]int64

	// Registered only for degraded runs, so degradation-free snapshots
	// stay byte-identical to the pre-degradation exports.
	rateMult *obs.Series
	powered  *obs.Series

	// Registered only for placement runs, same discipline.
	dlDepth *obs.Series
}

// newRecorder builds the run's recorder. The caller configures the
// simulator's link array first: the per-edge ISL depth series are laid
// out one per link, in link order.
func newRecorder(reg *obs.Registry, sim *simulator) *recorder {
	r := &recorder{
		sim:        sim,
		next:       sampleEvery.Seconds(),
		queueDepth: reg.Series("queue/depth"),
		backlog:    reg.Series("backlog"),
		effective:  reg.Series("workers/effective"),
		avail:      reg.Series("availability"),
		retried:    reg.Series("retries"),
		shed:       reg.Series("shed"),
		latency:    reg.Histogram("latency_s", window.LatencyBounds[:]...),
		backoff:    reg.Histogram("retry/backoff_s", backoffBuckets...),
	}
	r.islDepth = make([]*obs.Series, len(sim.links))
	for i := range sim.links {
		r.islDepth[i] = reg.Series("isl/" + sim.links[i].name)
	}
	if sim.deg != nil {
		r.rateMult = reg.Series("throttle/rate_mult")
		r.powered = reg.Series("workers/powered")
	}
	if sim.place != nil {
		r.dlDepth = reg.Series("downlink/depth")
	}
	return r
}

// record samples every series at grid point t, reading the simulator
// state valid since the previously applied event: the availability
// integral runs over [0, t], and the backlog counts frames in flight
// anywhere in the cell's pipeline.
func (r *recorder) record(t float64) {
	s := r.sim
	input := 0
	for i := range s.sudcs {
		input += s.sudcs[i].input.len()
	}
	r.queueDepth.Sample(t, float64(input))
	for i, ser := range r.islDepth {
		l := &s.links[i]
		ser.Sample(t, float64(l.queue.len()+l.flight.len()))
	}
	st := &s.stats
	r.backlog.Sample(t, float64(st.FramesGenerated+s.crossRecv-s.crossSent-
		st.FramesProcessed-st.FramesShed-st.FramesLost))
	r.effective.Sample(t, float64(s.effective))
	up := s.upTime
	if s.effective >= s.need && t > s.lastT {
		up += t - s.lastT
	}
	avail := 1.0
	if t > 0 {
		avail = up / t
	}
	r.avail.Sample(t, avail)
	r.retried.Sample(t, float64(st.FramesRetried-r.prevRetried))
	r.prevRetried = st.FramesRetried
	r.shed.Sample(t, float64(st.FramesShed-r.prevShed))
	r.prevShed = st.FramesShed
	if r.rateMult != nil {
		r.rateMult.Sample(t, s.rateMult)
		r.powered.Sample(t, float64(s.totalWorkers-s.browned))
	}
	if r.dlDepth != nil {
		r.dlDepth.Sample(t, float64(s.dlQueue.len()))
	}
}

// catchUp samples every grid point strictly before simulated time t.
func (r *recorder) catchUp(t float64) {
	for r.next < t {
		r.record(r.next)
		r.next += sampleEvery.Seconds()
	}
}

// finish samples the remaining grid points through the horizon.
func (r *recorder) finish(horizon float64) {
	for r.next <= horizon {
		r.record(r.next)
		r.next += sampleEvery.Seconds()
	}
}

// flush writes the run's end-of-run counters and gauges.
func (r *recorder) flush(reg *obs.Registry, s Stats) {
	reg.Counter("frames/generated").Add(int64(s.FramesGenerated))
	reg.Counter("frames/processed").Add(int64(s.FramesProcessed))
	reg.Counter("frames/insights").Add(int64(s.InsightsDownlinked))
	reg.Counter("frames/retried").Add(int64(s.FramesRetried))
	reg.Counter("frames/redispatched").Add(int64(s.FramesRedispatched))
	reg.Counter("frames/shed").Add(int64(s.FramesShed))
	reg.Counter("frames/lost").Add(int64(s.FramesLost))
	for kind, n := range r.events {
		if n > 0 {
			reg.Counter(eventNames[kind]).Add(n)
		}
	}
	reg.Gauge("availability_final").Set(s.Availability)
	reg.Gauge("degraded_fraction").Set(s.DegradedFraction)
	reg.Gauge("utilization/isl").Set(s.ISLUtilization)
	reg.Gauge("utilization/workers").Set(s.WorkerUtilization)
	reg.Gauge("queue/max").Set(float64(s.MaxInputQueue))
	if r.sim.deg != nil {
		reg.Gauge("throttle/mean_rate_mult").Set(s.MeanRateMult)
		reg.Gauge("throttle/time_s").Set(s.ThrottledTime.Seconds())
		reg.Gauge("brownout/time_s").Set(s.BrownoutTime.Seconds())
	}
	if r.sim.place != nil {
		for t := placement.Tier(0); t < placement.NumTiers; t++ {
			reg.Counter("placed/" + t.String()).Add(int64(s.TierFrames[t]))
		}
		reg.Gauge("placed/mean_cost").Set(s.PlacedMeanCost)
		reg.Gauge("placed/oracle_cost").Set(s.OracleMeanCost)
	}
}
