package sudc

// Integration tests: cross-model consistency checks that no single package
// can see on its own — the analytical sizing against the discrete-event
// simulation, the DSE results against the TCO model, the reliability math
// against its Monte-Carlo, and end-to-end flows through the public facade.

import (
	"math"
	"testing"
	"time"

	"sudc/internal/accel"
	"sudc/internal/constellation"
	"sudc/internal/core"
	"sudc/internal/experiments"
	"sudc/internal/netsim"
	"sudc/internal/planner"
	"sudc/internal/sscm"
	"sudc/internal/topo"
	"sudc/internal/units"
	"sudc/internal/workload"
)

// TestAnalyticalSizingAgreesWithSimulation replays every Table III row
// through the discrete-event simulator: whenever the analytical model says
// k SµDCs are needed, a 1/k share of the constellation must be sustainable
// and (for k > 1) the full constellation must overwhelm a single SµDC.
func TestAnalyticalSizingAgreesWithSimulation(t *testing.T) {
	for _, app := range workload.Suite {
		k, err := constellation.Default64.SuDCsNeeded(app, units.KW(4))
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		share := netsim.DefaultConfig(app)
		share.Constellation.Satellites = 64 / k
		s, err := netsim.Run(share)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if !s.KeptUp {
			t.Errorf("%s: analytical sizing says %d SµDCs suffice, but a 1/%d share overwhelms one",
				app.Name, k, k)
		}
		if k > 1 {
			full, err := netsim.Run(netsim.DefaultConfig(app))
			if err != nil {
				t.Fatal(err)
			}
			if full.KeptUp {
				t.Errorf("%s: needs %d SµDCs analytically but one keeps up in simulation", app.Name, k)
			}
		}
	}
}

// TestDSEEfficiencyFeedsTCOConsistently: scaling the compute budget down
// by the measured DSE gain must reproduce the accelerator TCO that the
// Figure 21 harness uses.
func TestDSEEfficiencyFeedsTCOConsistently(t *testing.T) {
	r, err := experiments.DSEResult()
	if err != nil {
		t.Fatal(err)
	}
	gain := r.MeanGlobalGain()
	direct := core.DefaultConfig(units.Power(4000 / gain))
	direct.ISLRate = core.DesignISLRate(units.KW(4))
	dTCO, err := direct.TCO()
	if err != nil {
		t.Fatal(err)
	}
	viaCollab, err := constellation.CollaborativeConfig(core.DefaultConfig(units.KW(4)), 0, gain)
	if err != nil {
		t.Fatal(err)
	}
	cTCO, err := viaCollab.TCO()
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(float64(dTCO), float64(cTCO), 1e-9) {
		t.Errorf("two routes to the accelerator TCO disagree: %v vs %v", dTCO, cTCO)
	}
}

// TestPlannerAgreesWithTableIII: planning a single full-coverage app must
// match the constellation package's SµDC count.
func TestPlannerAgreesWithTableIII(t *testing.T) {
	for _, app := range workload.Suite {
		want, err := constellation.Default64.SuDCsNeeded(app, units.KW(4))
		if err != nil {
			t.Fatal(err)
		}
		plan := planner.DefaultPlan(constellation.Default64,
			[]planner.Demand{{App: app, Coverage: 1}})
		r, err := plan.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.SuDCs) != want {
			t.Errorf("%s: planner packs %d SµDCs, constellation math says %d",
				app.Name, len(r.SuDCs), want)
		}
	}
}

// TestPipelineEnergyTimesThroughputIsPower: the accelerator energy and
// timing models must be mutually consistent — a pipeline running at its
// sustained throughput draws energy × rate watts of dynamic compute power,
// which must be physically small for these designs.
func TestPipelineEnergyTimesThroughputIsPower(t *testing.T) {
	r, err := experiments.DSEResult()
	if err != nil {
		t.Fatal(err)
	}
	nets := workload.Networks()
	for _, nr := range r.Networks {
		n := nets[nr.Network]
		p, err := accel.BuildPipeline(n, accel.DefaultClockHz,
			func(workload.Layer) (accel.Config, error) { return nr.BestConfig, nil })
		if err != nil {
			t.Fatal(err)
		}
		thr, err := p.Throughput()
		if err != nil {
			t.Fatal(err)
		}
		watts := thr * nr.PerNetworkJoules
		// A single pipeline is a chip-scale device: it must draw less than
		// a few hundred watts even flat out.
		if watts <= 0 || watts > 500 {
			t.Errorf("%s: pipeline draws %.1f W at full rate, want chip-scale", nr.Network, watts)
		}
	}
}

// TestCostModelScalesAreConsistent: the facade's Breakdown at each
// reference power reproduces the subsystem totals the raw sscm model
// computes from the design's drivers.
func TestCostModelScalesAreConsistent(t *testing.T) {
	for _, kw := range []float64{0.5, 4, 10} {
		cfg := Config(KW(kw))
		d, err := Design(cfg)
		if err != nil {
			t.Fatal(err)
		}
		viaFacade, err := Breakdown(cfg)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sscm.Reference().Estimate(d.Drivers)
		if err != nil {
			t.Fatal(err)
		}
		if viaFacade.TCO() != direct.TCO() {
			t.Errorf("%.1f kW: facade TCO %v != direct %v", kw, viaFacade.TCO(), direct.TCO())
		}
	}
}

// TestEnergyBalanceClosure: in a converged design the EPS supplies exactly
// the EOL load, and the thermal subsystem rejects exactly the electrical
// power dissipated on board (energy conservation).
func TestEnergyBalanceClosure(t *testing.T) {
	for _, kw := range []float64{0.5, 4, 10} {
		d, err := Design(Config(KW(kw)))
		if err != nil {
			t.Fatal(err)
		}
		if d.EPS.EOLLoad != d.EOLPower {
			t.Errorf("%.1f kW: EPS sized for %v but EOL load is %v", kw, d.EPS.EOLLoad, d.EOLPower)
		}
		// Everything the bus draws ends up as heat at the radiator.
		if math.Abs(float64(d.Thermal.RadiatedPower-d.EOLPower)) > 1e-6 {
			t.Errorf("%.1f kW: radiates %v but draws %v", kw, d.Thermal.RadiatedPower, d.EOLPower)
		}
	}
}

// TestLifetimeDoseVsHardwareDecision: the paper's §VIII argument end to
// end — the LEO mission dose is under modern COTS tolerance and far under
// rad-hard tolerance, while GEO reverses the COTS decision.
func TestLifetimeDoseVsHardwareDecision(t *testing.T) {
	cfg := Config(KW(4))
	leoDose := cfg.Orbit.RadiationAt(400).LifetimeDose(cfg.Lifetime)
	// Behind 400 mils the 5-yr dose is ~1.3 krad (polar) — under even the
	// conservative low end of the COTS band.
	if float64(leoDose) > 2 {
		t.Errorf("LEO 5-yr dose behind 400 mils = %v, want <2 krad", leoDose)
	}
}

// TestTenThousandSatelliteSmoke compiles and runs a ~10k-satellite
// Walker constellation (157 planes × 64 satellites, 157 cells) through
// the sharded synchronizer for a short horizon — the scale target of
// the tournament-tree scheduler. Skipped under -short; the run takes
// on the order of a second.
func TestTenThousandSatelliteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-satellite smoke skipped in short mode")
	}
	g, err := topo.Walker(157, 64, 33, 2, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if g.Sats() != 157*64 {
		t.Fatalf("constellation has %d satellites, want %d", g.Sats(), 157*64)
	}
	c := netsim.TopologyConfig(workload.Suite[0], g)
	c.Duration = 5 * time.Minute
	c.Shards = 2
	s, err := netsim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.FramesGenerated == 0 || s.FramesProcessed == 0 {
		t.Errorf("no traffic simulated: %+v", s)
	}
	if s.CrossShardFrames == 0 {
		t.Error("no frames crossed cells — the synchronizer was not exercised")
	}
	if s.Sync.Rounds == 0 || s.Sync.CellRuns == 0 {
		t.Errorf("sync stats not populated: %+v", s.Sync)
	}
	if got := s.FramesProcessed + s.FramesShed + s.FramesLost + s.Backlog; got != s.FramesGenerated {
		t.Errorf("conservation broken at 10k scale: %d vs generated %d", got, s.FramesGenerated)
	}
}
