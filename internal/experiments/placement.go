package experiments

// Extension E11: the "when to compute in space" frontier. The
// four-tier placement engine routes one application stream across the
// onboard / SµDC / ground-edge / cloud tiers while the sweep varies
// traffic intensity (frames per minute per satellite) and downlink
// capacity. Space-side $/frame amortizes the fixed SµDC TCO over the
// offered stream, so goodput-per-TCO-dollar rises with traffic until
// it crosses the bent-pipe-to-cloud line — the paper's demand-side
// argument for computing in space — while shrinking downlink capacity
// moves the crossover earlier by starving the bent pipe. The offline
// Oracle floor lower-bounds every realized policy at every sweep
// point, and the low-load cells are cross-checked against the
// Erlang-C M/M/c wait.

import (
	"fmt"
	"time"

	"sudc/internal/netsim"
	"sudc/internal/par"
	"sudc/internal/placement"
	"sudc/internal/units"
	"sudc/internal/workload"
)

// PlacementPoint is one cell of the E11 traffic × downlink grid.
type PlacementPoint struct {
	// FramesPerMinute is the per-satellite capture rate; DownlinkGbps
	// the constellation-aggregate downlink capacity.
	FramesPerMinute float64
	DownlinkGbps    float64

	// SpaceCost .. QueueCost are the DES-realized mean per-frame costs
	// ($ + latency-weighted seconds) under static-to-space,
	// static-to-cloud, greedy, and queue-aware placement. OracleCost is
	// the analytic per-frame floor no policy can beat.
	SpaceCost, CloudCost, GreedyPolCost, QueuePolCost, OracleCost float64

	// SpacePerDollar and CloudPerDollar are goodput per TCO dollar:
	// frames actually processed divided by what the tier charges for
	// the whole offered stream. Saturation (shed frames, a starved
	// downlink) lowers them; SpaceWins marks the frontier.
	SpacePerDollar, CloudPerDollar float64
	SpaceWins                      bool

	// EdgeWaitDES is the measured ground-edge queueing wait (mean
	// latency above the transport+service floor) under static-to-edge;
	// EdgeWaitMMc the Erlang-C wait of the matching M/M/c system. At
	// low load both sit at ≈0 — the analytic anchor.
	EdgeWaitDES, EdgeWaitMMc float64
}

// placementScenario derives the E11 pricing scenario for one traffic
// intensity.
func placementScenario(app workload.App, fpm float64) placement.Scenario {
	s := placement.DefaultScenario(app)
	s.FramesPerMinute = fpm
	return s
}

// placementConfig lowers one sweep cell into a DES configuration for
// the given policy.
func placementConfig(app workload.App, fpm, gbps float64, p placement.Policy) (netsim.Config, error) {
	pc, err := placementScenario(app, fpm).Config(p)
	if err != nil {
		return netsim.Config{}, err
	}
	pc.DownlinkRate = units.GbpsOf(gbps)
	c := netsim.DefaultConfig(app)
	c.Constellation.FramesPerMinute = fpm
	c.Duration = 30 * time.Minute
	c.Placement = pc
	return c, nil
}

// placementPolicies are the policies every E11 cell runs, in the order
// PlacementSweep reads their results.
var placementPolicies = [...]placement.Policy{
	{Kind: placement.Static, StaticTier: placement.TierSpace},
	{Kind: placement.Static, StaticTier: placement.TierCloud},
	{Kind: placement.Static, StaticTier: placement.TierGroundEdge},
	{Kind: placement.GreedyCost},
	{Kind: placement.QueueAware},
}

// placementRun is one (cell, policy) DES run of the E11 grid.
type placementRun struct {
	fpm, gbps float64
	policy    placement.Policy
}

// placementResult is a placementRun's statistics and the placement
// config it ran under.
type placementResult struct {
	stats netsim.Stats
	pc    *placement.Config
}

// PlacementSweep runs the E11 grid. Each cell runs the DES once per
// policy — static-to-space, static-to-cloud, static-to-edge (the
// M/M/c anchor), greedy, and queue-aware — over a 30-minute horizon of
// the 64-satellite reference constellation. The cell × policy runs are
// independent, so they go through the shared parallel engine one run
// per claim (a run is milliseconds of DES, and a 24 frames/min cell
// simulates 48× the frames of a 0.5 one); each config is a pure
// function of its cell and policy, so the points are identical for any
// worker count.
func PlacementSweep(app workload.App, fpms, downlinkGbps []float64) ([]PlacementPoint, error) {
	runs := make([]placementRun, 0, len(fpms)*len(downlinkGbps)*len(placementPolicies))
	for _, gbps := range downlinkGbps {
		for _, fpm := range fpms {
			for _, p := range placementPolicies {
				runs = append(runs, placementRun{fpm: fpm, gbps: gbps, policy: p})
			}
		}
	}
	results, err := par.MapErr(runs, func(r placementRun) (placementResult, error) {
		c, err := placementConfig(app, r.fpm, r.gbps, r.policy)
		if err != nil {
			return placementResult{}, err
		}
		s, err := netsim.Run(c)
		return placementResult{stats: s, pc: c.Placement}, err
	}, par.Chunk(1))
	if err != nil {
		return nil, err
	}

	points := make([]PlacementPoint, 0, len(fpms)*len(downlinkGbps))
	for k := 0; k < len(results); k += len(placementPolicies) {
		fpm := runs[k].fpm
		pt := PlacementPoint{FramesPerMinute: fpm, DownlinkGbps: runs[k].gbps}
		space, pc := results[k].stats, results[k].pc
		cloud := results[k+1].stats
		edge := results[k+2].stats
		greedy := results[k+3].stats
		queue := results[k+4].stats

		pt.SpaceCost = space.PlacedMeanCost
		pt.CloudCost = cloud.PlacedMeanCost
		pt.GreedyPolCost = greedy.PlacedMeanCost
		pt.QueuePolCost = queue.PlacedMeanCost
		pt.OracleCost = pc.Model.OracleCost()

		// Goodput per TCO dollar charges each tier for the whole
		// offered stream: frames the run shed or stranded in a starved
		// downlink earn nothing but still cost their amortized share.
		spaceDollars := pc.Model.Tiers[placement.TierSpace].DollarsPerFrame * float64(space.FramesGenerated)
		cloudDollars := pc.Model.Tiers[placement.TierCloud].DollarsPerFrame * float64(cloud.FramesGenerated)
		if spaceDollars > 0 {
			pt.SpacePerDollar = float64(space.FramesProcessed) / spaceDollars
		}
		if cloudDollars > 0 {
			pt.CloudPerDollar = float64(cloud.FramesProcessed) / cloudDollars
		}
		pt.SpaceWins = pt.SpacePerDollar > pt.CloudPerDollar

		// M/M/c anchor at the ground edge: measured wait above the
		// deterministic floor vs the Erlang-C wait at the same load.
		ec := pc.Model.Tiers[placement.TierGroundEdge]
		floor := app.FrameBits()/pc.Ratio()/float64(pc.DownlinkRate) +
			pc.AccessDelay.Seconds() + ec.ServiceTime
		pt.EdgeWaitDES = edge.TierMeanLatency[placement.TierGroundEdge].Seconds() - floor
		lambda := fpm / 60 * 64
		pt.EdgeWaitMMc = placement.MMcWait(lambda, 1/ec.ServiceTime, ec.Servers)

		points = append(points, pt)
	}
	return points, nil
}

// ExtPlacement renders E11.
func ExtPlacement() (Table, error) {
	points, err := PlacementSweep(workload.Suite[0],
		[]float64{0.5, 2, 6, 24}, []float64{1, 10})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "Extension E11",
		Title: "when to compute in space: goodput per TCO dollar vs bent pipe, four-tier placement",
		Header: []string{"frames/min", "downlink Gbps", "space fr/$", "cloud fr/$", "winner",
			"$space", "$cloud", "$greedy", "$queue", "$oracle", "edge wait DES", "edge wait M/M/c"},
	}
	for _, p := range points {
		winner := "bent pipe"
		if p.SpaceWins {
			winner = "space"
		}
		t.AddRow(f1(p.FramesPerMinute), f1(p.DownlinkGbps),
			g3(p.SpacePerDollar), g3(p.CloudPerDollar), winner,
			g3(p.SpaceCost), g3(p.CloudCost), g3(p.GreedyPolCost), g3(p.QueuePolCost), g3(p.OracleCost),
			g3(p.EdgeWaitDES), g3(p.EdgeWaitMMc))
	}
	return t, nil
}

// g3 renders small dollar and second magnitudes without drowning them
// in fixed-point zeros.
func g3(v float64) string { return fmt.Sprintf("%.3g", v) }
