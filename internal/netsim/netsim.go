// Package netsim is a discrete-event simulation of the paper's Figure 14
// processing pipeline: EO satellites produce imagery frames, frames cross
// the shared FSO inter-satellite link into the SµDC's input buffer, a
// batcher groups them into energy-minimizing batches and dispatches them to
// GPU workers, and an analyzer decides which results are "insights" worth
// downlinking.
//
// The simulator cross-validates the analytical sizing: a 4 kW SµDC keeps up
// with a 64-satellite constellation for every Table III application except
// Panoptic Segmentation, which needs four (the "# SµDC" column), and
// batching latency at low frame rates reaches the "several minutes" the
// paper describes.
//
// Beyond the fault-free pipeline, the simulator replays fault schedules
// from package faults — transient SEFI hangs with watchdog recovery,
// permanent node deaths, and ISL outage windows — under degraded-mode
// policies: frame retry with capped exponential backoff across the ISL,
// re-dispatch of batches stranded on a dead worker, and load-shedding of
// the lowest-value frames once the input queue exceeds a threshold. This
// is how the paper's fourth optimization (near-zero-cost compute
// overprovisioning) is validated end to end: DES-measured availability
// under spares is cross-checked against reliability.Availability.
//
// Every run executes one compiled constellation graph (package topo).
// A config without a Topology is the paper's one-cell star,
// topo.Star(Constellation.Satellites, Workers); explicit graphs add
// multi-hop routing, per-edge ISL state, and cells that run sharded
// with conservative cross-cell synchronization.
package netsim

import (
	"errors"
	"fmt"
	"time"

	"sudc/internal/constellation"
	"sudc/internal/degrade"
	"sudc/internal/faults"
	"sudc/internal/obs"
	"sudc/internal/obs/slo"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
	"sudc/internal/par"
	"sudc/internal/placement"
	"sudc/internal/topo"
	"sudc/internal/units"
	"sudc/internal/workload"
)

// ShedAll is the ShedThreshold sentinel for a threshold of literally
// zero: every frame landing in the input queue is immediately shed (the
// queue is never allowed to hold a frame). The zero value 0 means
// shedding is disabled, so an explicit zero threshold needs its own
// spelling.
const ShedAll = -1

// Config describes one simulation run.
type Config struct {
	// Constellation produces the frames.
	Constellation constellation.Constellation
	// App is the processed application (frame size, GPU characteristics).
	App workload.App
	// ISLRate is the aggregate link capacity into the SµDC.
	ISLRate units.DataRate
	// Workers is the number of GPU nodes, each drawing App.GPUPower.
	Workers int
	// BatchSize is the energy-minimizing batch; a partial batch is
	// dispatched after BatchTimeout.
	BatchSize    int
	BatchTimeout time.Duration
	// InsightFraction of results is downlinked; the rest is discarded by
	// the analyzer.
	InsightFraction float64
	// Duration is the simulated time span.
	Duration time.Duration
	// Seed drives the arrival-jitter and analyzer randomness, and forks
	// the fault-schedule streams.
	Seed int64

	// Faults injects worker and ISL faults; the zero value simulates a
	// fault-free world.
	Faults faults.Scenario
	// NeedWorkers is the worker count that defines full service for
	// availability accounting (0 means Workers). With spare nodes, set
	// NeedWorkers to the sized need and Workers to need + spares.
	NeedWorkers int
	// RetryLimit caps failed ISL transmission attempts per frame before
	// the frame is dropped as lost (0 = retry forever). The first retry
	// waits 2 s; each further failed attempt doubles the wait, up to
	// 60 s.
	RetryLimit int
	// ShedThreshold sheds the lowest-value queued frame whenever the
	// input queue grows beyond it. The zero value disables shedding;
	// use ShedAll (-1) for an explicit threshold of zero, which sheds
	// every queued frame. Values below ShedAll are invalid.
	ShedThreshold int

	// Obs, when non-nil, receives this run's observability stream:
	// frame counters, the latency and retry-backoff histograms, and
	// queue-depth/backlog/retry/shed/availability time series with one
	// point per whole window (every Window, or every simulated minute
	// when Window is zero). availability, retries and shed are the
	// window's own; the depth gauges read the state at the window's end.
	// Because every point is keyed to simulated time only, the stream is
	// byte-identical for any process worker count. Each run needs its
	// own registry or scope; RunReplicas scopes one per replica
	// automatically.
	Obs *obs.Registry

	// Topology is the constellation graph the run simulates: frames
	// route along graph edges toward their nearest SµDC, every ISL edge
	// gets its own queue, transfer state, and outage process, and the
	// simulation is sharded by graph cell (orbital plane or cluster)
	// with conservative cross-cell synchronization. The graph defines
	// the satellite and worker populations, so Constellation.Satellites
	// and Workers are ignored; Constellation.FramesPerMinute,
	// FilterRate, ISLRate (the rate inherited by edges with Rate 0), and
	// every other field keep their meaning. NeedWorkers may lower the
	// full-service bar on a one-cell graph; on a multi-cell graph it
	// must stay 0, since each cell's full worker complement defines its
	// full service. A nil Topology is the one-cell star
	// topo.Star(Constellation.Satellites, Workers).
	Topology *topo.Graph
	// Shards caps the number of parallel workers executing topology
	// cells (0 = par.DefaultWorkers()). Results are byte-identical for
	// any value: sharding only schedules which goroutine advances a
	// cell, never what the cell computes. A one-cell graph, including
	// the nil-Topology star, runs on one goroutine whatever the value.
	Shards int

	// Degrade, when non-nil, couples the run to its orbital environment:
	// a degrade.Schedule compiled over the run horizon slows worker
	// service in hot sunlit phases (thermal throttling), caps the powered
	// worker complement during eclipse (power brownouts — batches
	// stranded on a parked worker re-dispatch like on a node death), and
	// raises SEFI intensity with temperature via faults.BuildModulated.
	// A profile whose schedule compiles to the identity (Severity 0) is
	// dropped to nil internally, so the run is byte-identical to one with
	// no degradation at all.
	Degrade *degrade.Profile
	// ThrottleShed scales the shed threshold by the active throttle
	// multiplier during throttled phases, shedding earlier when service
	// is slow — the throttle-aware load-shedding policy. Requires
	// Degrade and an enabled ShedThreshold.
	ThrottleShed bool
	// DeferInEclipse holds partial-batch timeouts that fire during an
	// eclipse phase until the phase ends, deferring marginal work to
	// sunlit power — the deadline-aware deferral policy. Full batches
	// still dispatch on the surviving powered workers. Requires Degrade.
	DeferInEclipse bool

	// Placement, when non-nil, enables the multi-tier compute-placement
	// engine: at capture time each frame is routed by the configured
	// policy to one of four compute tiers — the capturing satellite's
	// flight computer, the orbital SµDC (the ISL/batch pipeline),
	// a ground-station edge site behind the shared downlink, or the
	// terrestrial cloud behind the WAN — and the run reports per-tier
	// frame counts, latency, and realized $/frame. Routing decisions are
	// pure functions of the model and the observed queue state (no RNG
	// draws, no seed events), so a Static-to-space policy replays the
	// placement-free frame flow byte for byte, modulo the placement-only
	// Stats fields and "placed" trace lines. On a multi-cell graph the
	// configured downlink rate is split evenly across cells and each
	// cell gets its own EdgeServers-sized edge pool.
	Placement *placement.Config

	// Trace, when non-nil, receives the run's frame-lineage flight
	// recording: the full per-frame lifecycle (capture, ISL transfer,
	// retries, batching, compute, downlink) plus the fault events that
	// stalled it, with stable frame IDs assigned in capture order.
	// Emission order is the DES event order — a pure function of
	// simulated time — so recordings are byte-identical for any process
	// worker count. Each run needs its own recorder (or child scope);
	// RunReplicas scopes one child per replica automatically.
	Trace *trace.Recorder

	// Window, when positive, enables windowed mission telemetry:
	// tumbling sim-time windows of frame counters, fixed-bucket latency
	// quantiles, and environment occupancy (eclipse, throttle,
	// brownout, ISL outage), merged across topology cells at the
	// conservative cross-cell watermark — the minimum next event time
	// over all cells and in-flight messages, where every cell's
	// environment is provably constant. The merged stream is therefore
	// byte-identical for any Shards value or process worker count. Zero
	// disables windowing at the cost of one nil check per event.
	Window time.Duration
	// OnWindow, when non-nil, observes each completed merged window in
	// index order, live at the watermark that sealed it. Requires
	// Window > 0. Per-run state: RunReplicas rejects it (replicas would
	// interleave their streams nondeterministically).
	OnWindow func(window.Window)
	// SLO, when non-nil, evaluates the declared objectives over the
	// window stream with multi-window burn-rate alerting once the run
	// completes. Requires Window > 0. Alerts land only in Trace, each
	// as an "slo_alert" event carrying the window's ranked environment
	// attribution, so a run without a Trace skips the evaluation; for a
	// report without a trace, run slo.Run over the OnWindow stream. A
	// zero CostFloor is filled from the placement model's oracle floor.
	SLO *slo.Config
}

// DefaultConfig simulates the paper's reference scenario for one app: the
// 64-satellite constellation feeding a 4 kW SµDC.
func DefaultConfig(app workload.App) Config {
	workers := int(4000 / float64(app.GPUPower))
	if workers < 1 {
		workers = 1
	}
	return Config{
		Constellation:   constellation.Default64,
		App:             app,
		ISLRate:         units.GbpsOf(30),
		Workers:         workers,
		BatchSize:       8,
		BatchTimeout:    2 * time.Minute,
		InsightFraction: 0.2,
		Duration:        2 * time.Hour,
		Seed:            1,
		RetryLimit:      8,
	}
}

// TopologyConfig is DefaultConfig for an explicit constellation graph:
// the same reference batching, retry, and timing settings, with the
// satellite and worker populations defined by the graph instead of the
// Constellation/Workers fields.
func TopologyConfig(app workload.App, g *topo.Graph) Config {
	c := DefaultConfig(app)
	c.Topology = g
	c.Workers = 0
	c.NeedWorkers = 0
	c.Constellation.Satellites = 0
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	workers := c.Workers
	if c.Topology != nil {
		// The graph defines satellites and workers, so only the
		// per-satellite rate and filter fields of the constellation apply.
		if err := c.Topology.Validate(); err != nil {
			return err
		}
		if c.Constellation.FramesPerMinute <= 0 {
			return errors.New("netsim: imaging rate must be positive")
		}
		if c.Constellation.FilterRate < 0 || c.Constellation.FilterRate >= 1 {
			return fmt.Errorf("netsim: filter rate %v out of [0,1)", c.Constellation.FilterRate)
		}
		if c.NeedWorkers != 0 && c.Topology.Cells() > 1 {
			return errors.New("netsim: NeedWorkers must be 0 on a multi-cell topology: each cell's full worker complement defines its full service")
		}
		workers = c.Topology.Workers()
	} else {
		// Run compiles the star from these caller-supplied fields.
		if err := c.Constellation.Validate(); err != nil {
			return err
		}
		if c.Workers < 1 {
			return errors.New("netsim: need at least one worker")
		}
	}
	if c.Shards < 0 {
		return errors.New("netsim: negative shard count")
	}
	if c.NeedWorkers < 0 {
		return errors.New("netsim: negative need-workers")
	}
	if c.NeedWorkers > workers {
		return fmt.Errorf("netsim: need %d workers but only %d installed", c.NeedWorkers, workers)
	}
	if err := c.App.Validate(); err != nil {
		return err
	}
	if c.ISLRate <= 0 {
		return errors.New("netsim: ISL rate must be positive")
	}
	if c.BatchSize < 1 {
		return errors.New("netsim: batch size must be ≥ 1")
	}
	if c.BatchTimeout <= 0 {
		return errors.New("netsim: batch timeout must be positive")
	}
	if c.InsightFraction < 0 || c.InsightFraction > 1 {
		return fmt.Errorf("netsim: insight fraction %v out of [0,1]", c.InsightFraction)
	}
	if c.Duration <= 0 {
		return errors.New("netsim: duration must be positive")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.RetryLimit < 0 {
		return errors.New("netsim: negative retry limit")
	}
	if c.ShedThreshold < ShedAll {
		return fmt.Errorf("netsim: shed threshold %d below ShedAll (%d)", c.ShedThreshold, ShedAll)
	}
	if c.Degrade != nil {
		if err := c.Degrade.Validate(); err != nil {
			return err
		}
	} else if c.ThrottleShed || c.DeferInEclipse {
		return errors.New("netsim: ThrottleShed and DeferInEclipse require Degrade")
	}
	if c.ThrottleShed && c.ShedThreshold == 0 {
		return errors.New("netsim: ThrottleShed requires an enabled ShedThreshold")
	}
	if err := c.Placement.Validate(); err != nil {
		return err
	}
	if c.Window < 0 {
		return errors.New("netsim: negative window width")
	}
	// Window cuts Duration into ceil(Duration/Window) windows.
	if c.Window > 0 && (c.Duration-1)/c.Window+1 > window.MaxWindows {
		return fmt.Errorf("netsim: window %v cuts the %v run into more than %d windows", c.Window, c.Duration, window.MaxWindows)
	}
	if c.OnWindow != nil && c.Window <= 0 {
		return errors.New("netsim: OnWindow requires a positive Window")
	}
	if c.SLO != nil {
		if c.Window <= 0 {
			return errors.New("netsim: SLO requires a positive Window")
		}
		if err := c.SLO.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Stats is the simulation outcome.
type Stats struct {
	// FramesGenerated, FramesProcessed, InsightsDownlinked count frames.
	FramesGenerated    int
	FramesProcessed    int
	InsightsDownlinked int
	// Backlog is frames still in flight or queued at the end of the run.
	Backlog int
	// MeanLatency and P95Latency are generation→processing-complete
	// times over the processed frames. MeanLatency is the correctly
	// rounded mean, independent of sample order; P95Latency is element
	// ⌊0.95·n⌋ of the sorted latencies.
	MeanLatency time.Duration
	P95Latency  time.Duration
	// ISLUtilization and WorkerUtilization are busy-time fractions.
	ISLUtilization    float64
	WorkerUtilization float64
	// MaxInputQueue is the peak frame count waiting for a batch slot.
	MaxInputQueue int
	// ComputeEnergy is the integrated worker energy over the run.
	ComputeEnergy units.Energy
	// KeptUp reports whether the SµDC drained its input: backlog at the
	// end is below twice a batch per worker.
	KeptUp bool

	// FramesRetried counts failed ISL transmission attempts that were
	// retried with exponential backoff.
	FramesRetried int
	// FramesRedispatched counts frames re-queued after the worker
	// serving their batch died mid-service.
	FramesRedispatched int
	// FramesShed counts lowest-value frames dropped by load shedding.
	FramesShed int
	// FramesLost counts frames dropped at the ISL retry limit.
	FramesLost int
	// WorkerDowntime is the accumulated dead-or-hung worker time summed
	// over all workers (worker-time, not wall-clock).
	WorkerDowntime time.Duration
	// ISLDowntime is the total ISL outage time within the run.
	ISLDowntime time.Duration
	// DegradedFraction is the fraction of the run spent with fewer than
	// the full worker complement in service.
	DegradedFraction float64
	// Availability is the fraction of the run with at least NeedWorkers
	// (default: all workers) in service — the DES counterpart of
	// reliability.Availability.
	Availability float64

	// ThrottledTime is the simulated time spent in degradation phases
	// with a service-rate multiplier below 1 (zero without Degrade).
	ThrottledTime time.Duration
	// BrownoutTime is the simulated time with at least one worker parked
	// by an eclipse power brownout.
	BrownoutTime time.Duration
	// MeanRateMult is the time-averaged service-rate multiplier over the
	// run — exactly 1 when degradation is disabled.
	MeanRateMult float64
	// BatchesDeferred counts partial-batch timeouts DeferInEclipse held
	// until the end of their eclipse phase.
	BatchesDeferred int

	// CrossShardFrames counts frames delivered across cell boundaries as
	// timestamped messages by the sharded topology runner. Always zero
	// for one-cell graphs (including the nil-Topology star) and for
	// topologies whose cells are self-contained.
	CrossShardFrames int

	// TierFrames counts completed frames per placement tier, and
	// TierMeanLatency / TierP99Latency / TierDollars break end-to-end
	// latency and amortized spend down by tier. TierMeanLatency is the
	// correctly rounded mean, independent of sample order, and
	// TierP99Latency interpolates between order statistics as
	// latency.Quantile does. PlacedMeanCost is the
	// realized mean per-frame cost (tier dollars plus latency-weighted
	// end-to-end latency) and OracleMeanCost the analytic per-frame
	// floor min over tiers of the load-free static cost — no realized
	// policy can beat it. All zero without Config.Placement.
	TierFrames      [placement.NumTiers]int
	TierMeanLatency [placement.NumTiers]time.Duration
	TierP99Latency  [placement.NumTiers]time.Duration
	TierDollars     [placement.NumTiers]float64
	PlacedMeanCost  float64
	OracleMeanCost  float64

	// Sync summarizes the conservative synchronizer of a multi-cell
	// topology run. Zero for one-cell graphs, including the nil-Topology
	// star.
	Sync SyncStats
}

// SyncStats describes the sharded runner's synchronization behavior.
// Every field is a pure function of the config — never of
// Config.Shards or the worker count — so it inherits the byte-identity
// contract and is safe to compare across shard counts.
type SyncStats struct {
	// Rounds counts executed synchronization rounds (windows).
	Rounds int
	// CellRuns counts per-cell executions summed over all rounds; idle
	// and drained cells are skipped and contribute nothing.
	CellRuns int
	// CrossMsgs counts cross-cell messages exchanged at round barriers.
	CrossMsgs int
	// LookaheadSum accumulates each executed cell's lookahead width —
	// its run limit (capped at the horizon) minus the round's earliest
	// event time — in simulated seconds. LookaheadSum / CellRuns is the
	// mean lookahead width.
	LookaheadSum float64
}

// event kinds.
const (
	evFrameReady  = iota // a satellite finished capturing a frame
	evISLDone            // a frame finished crossing the ISL
	evBatchDone          // a worker finished a batch
	evBatchingOut        // batch timeout fired
	evISLRetry           // backoff expired, the head frame retries the ISL
	evOutageStart        // the ISL goes down
	evOutageEnd          // the ISL recovers
	evWorkerDeath        // a worker dies permanently
	evSEFIStart          // a worker hangs on a transient SEFI
	evSEFIEnd            // the watchdog recovered a hung worker
	evArrive             // a frame finished propagating an intra-cell edge
	evArriveMsg          // a cross-cell message frame arrives in this cell
	evPhase              // the degradation schedule advances to its next phase

	// Placement-engine events. Appended after the pipeline kinds so the
	// placement-free event numbering (and every golden keyed to it) is
	// untouched.
	evOnboardDone  // a satellite flight computer finished a frame
	evDownlinkDone // a ground-bound frame finished crossing the downlink
	evEdgeArrive   // a downlinked frame reached the ground-edge site
	evCloudArrive  // a downlinked frame reached the cloud
	evEdgeDone     // a ground-edge server finished a frame
	evCloudDone    // the cloud finished a frame
)

// event is one scheduled simulation event. Like frame it is
// register-sized: at most 32 bytes and 4 fields at every struct level,
// the limit under which the compiler keeps a struct in registers and
// stores it field by field (TestHotValuesFitRegisters).
type event struct {
	at  float64 // seconds
	seq int     // heap tiebreak for determinism
	eventArgs
}

// eventArgs says what an event acts on.
type eventArgs struct {
	kind int32
	// who is a satellite, worker, edge, SµDC, arrival-slot or degrade
	// phase index by kind; for evSEFIStart and evOutageStart it indexes
	// the run's fault schedule (simulator.sched).
	who int32
	// gen is the invalidation generation of evISLDone and evBatchDone.
	// Generations are only compared for equality with the live counter,
	// so its wrap-around cannot alias a pending event.
	gen int32
}

// frame is 32 bytes in 4 fields: a saturated downlink or ISL queue
// holds tens of thousands of them in one ring, so the field widths set
// the arena, and the field count keeps it in registers (see event).
type frame struct {
	id    int64   // stable 1-based frame ID, assigned in capture order
	born  float64 // generation time, s
	value float64 // analyzer value draw in [0,1): the top InsightFraction quantile is an insight
	frameRoute
}

// frameRoute is a frame's transport state.
type frameRoute struct {
	tries int32 // failed ISL transmission attempts (2^31 at the 60 s backoff cap is 4,000 simulated years)
	tier  int8  // placement.Tier the frame was routed to (placement runs only)
}

// workerState is one GPU node's health and service state.
type workerState struct {
	dead    bool
	hung    bool
	busy    bool
	browned bool    // parked by an eclipse power brownout
	gen     int32   // invalidates stale evBatchDone events
	doneAt  float64 // completion time of the batch in service
	batch   []frame // in-flight frames, for re-dispatch on death
}

// Run executes the simulation seeded from c.Seed. A nil Topology
// compiles to the one-cell star, so every run takes the same compiled,
// cell-sharded path.
func Run(c Config) (Stats, error) {
	if err := c.Validate(); err != nil {
		return Stats{}, err
	}
	if c.Topology == nil {
		c.Topology = topo.Star(c.Constellation.Satellites, c.Workers)
	}
	return runTopology(c)
}

// RunReplicas executes `replicas` independent runs of the configuration,
// seeding replica r with par.ForkSeed(c.Seed, r), evaluated in parallel
// over the shared engine. Both the per-replica fault schedules and the
// returned Stats slice are identical for any worker count (workers ≤ 0
// uses the engine default). Availability experiments average over
// replicas to beat per-trajectory noise.
func RunReplicas(c Config, replicas, workers int) ([]Stats, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if replicas < 1 {
		return nil, errors.New("netsim: replicas must be ≥ 1")
	}
	if c.OnWindow != nil {
		// Replicas run concurrently; their window streams would
		// interleave nondeterministically through one callback. Give
		// each replica its own Run and callback instead (forking seeds
		// with par.ForkSeed), as experiments.SLOSweep does.
		return nil, errors.New("netsim: OnWindow is per-run; RunReplicas cannot multiplex it")
	}
	out := make([]Stats, replicas)
	err := par.ForNErr(replicas, func(r int) error {
		cc := c
		cc.Seed = par.ForkSeed(c.Seed, r)
		if c.Obs != nil {
			// Each replica writes disjoint names into the shared store,
			// so the merged snapshot is identical for any worker count.
			cc.Obs = c.Obs.Scope(fmt.Sprintf("r%03d", r))
		}
		if c.Trace != nil {
			// Same discipline for the flight recorder: one child scope
			// per replica, exported in sorted scope order.
			cc.Trace = c.Trace.Child(fmt.Sprintf("r%03d", r))
		}
		s, err := Run(cc)
		if err != nil {
			return err
		}
		out[r] = s
		return nil
	}, par.Workers(workers))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// buildDegrade compiles the config's degradation schedule over the run
// horizon. Identity schedules (Severity 0) drop to nil so a
// zero-severity run takes the exact degradation-free code path — the
// byte-identity anchor for the severity sweep's baseline.
func buildDegrade(c Config) (*degrade.Schedule, error) {
	if c.Degrade == nil {
		return nil, nil
	}
	deg, err := degrade.Build(*c.Degrade, c.Duration)
	if err != nil {
		return nil, err
	}
	if deg.Identity() {
		return nil, nil
	}
	return deg, nil
}

// emitSLO evaluates the run's SLO objectives over the merged window
// stream and records each burn-rate alert as an "slo_alert" trace
// event. Alerts have no other destination, so a run without a trace
// skips the evaluation. A zero CostFloor is filled from the placement
// oracle so the cost-per-frame objective prices against the provable
// floor.
func emitSLO(c Config, wins []window.Window) {
	if c.SLO == nil || c.Trace == nil || len(wins) == 0 {
		return
	}
	cfg := *c.SLO
	if cfg.CostFloor == 0 && c.Placement != nil {
		cfg.CostFloor = c.Placement.Model.OracleCost()
	}
	rep := slo.Run(cfg, wins)
	for _, a := range rep.Alerts {
		c.Trace.Record(trace.Event{T: a.End, Kind: trace.SLOAlert, Node: -1,
			N: a.Window, Mult: a.Fast, Dur: a.End - a.Start,
			Cause: a.Cause, Name: a.Objective})
	}
}
