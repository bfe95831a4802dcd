package experiments

import (
	"fmt"

	"sudc/internal/accel"
	"sudc/internal/constellation"
	"sudc/internal/core"
	"sudc/internal/downlink"
	"sudc/internal/fso"
	"sudc/internal/hardware"
	"sudc/internal/lifecycle"
	"sudc/internal/orbit"
	"sudc/internal/planner"
	"sudc/internal/trade"
	"sudc/internal/units"
	"sudc/internal/workload"
	"sudc/internal/wright"
)

// Extensions returns the studies that go beyond the paper's evaluation:
// fleet planning for application mixes, constellation maintenance
// economics, a GEO variant, and accelerator pipeline timing.
func Extensions() []Experiment {
	return []Experiment{
		{"Extension E1", "fleet plan for the full application suite", ExtFleetPlan},
		{"Extension E2", "constellation maintenance: spares vs availability & cost", ExtMaintenance},
		{"Extension E3", "LEO vs GEO SµDC", ExtGEO},
		{"Extension E4", "accelerator pipeline throughput and latency", ExtPipelineTiming},
		{"Extension E5", "bent-pipe downlink vs in-space processing", ExtBentPipe},
		{"Extension E6", "power × lifetime trade study Pareto front", ExtTradeStudy},
		{"Extension E7", "overprovisioning under injected faults: DES vs analytic availability", ExtOverprovision},
		{"Extension E8", "Walker topology scaling through the sharded conservative-lookahead DES", ExtShardedTopology},
		{"Extension E9", "COTS degradation: throttle severity × eclipse fraction vs fault-only availability", ExtDegradation},
		{"Extension E10", "compressed-horizon survivability under degradation and fleet lifecycle", ExtSurvivability},
		{"Extension E11", "when to compute in space: four-tier placement frontier vs bent pipe", ExtPlacement},
		{"Extension E12", "SLO attainment and burn-rate alert placement under COTS degradation", ExtSLO},
	}
}

// ExtFleetPlan packs the whole Table III suite onto 4 kW SµDCs, for the
// commodity-GPU payload and for a global-accelerator payload.
func ExtFleetPlan() (Table, error) {
	dseRes, err := DSEResult()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Extension E1",
		Title:  "fleet plan: full application suite over 64 EO satellites",
		Header: []string{"payload", "SµDCs", "fleet utilization", "fleet NRE $M", "fleet RE $M", "fleet TCO $M"},
	}
	for _, arch := range []struct {
		name string
		gain float64
	}{
		{"commodity GPU", 1},
		{"global accelerator", dseRes.MeanGlobalGain()},
	} {
		demands := make([]planner.Demand, 0, len(workload.Suite))
		for _, a := range workload.Suite {
			demands = append(demands, planner.Demand{App: a, Coverage: 1, EfficiencyGain: arch.gain})
		}
		plan := planner.DefaultPlan(constellation.Default64, demands)
		r, err := plan.Pack()
		if err != nil {
			return Table{}, err
		}
		t.AddRow(arch.name, fmt.Sprintf("%d", len(r.SuDCs)), pct(r.Utilization),
			f1(r.FleetNRE.Millions()), f1(r.FleetRE.Millions()), f1(r.FleetTCO.Millions()))
	}
	return t, nil
}

// ExtMaintenance sweeps sparing policies for a 15-year program keeping
// four 4 kW SµDCs operational.
func ExtMaintenance() (Table, error) {
	b, err := core.DefaultConfig(units.KW(4)).Breakdown()
	if err != nil {
		return Table{}, err
	}
	tot := b.Total()
	t := Table{
		ID:     "Extension E2",
		Title:  "15-year program keeping 4 × 4 kW SµDCs operational (b = 0.75)",
		Header: []string{"spares", "availability", "mean operational", "units built", "program cost $M"},
	}
	for _, spares := range []int{0, 1, 2} {
		p := lifecycle.DefaultPolicy()
		p.Spares = spares
		sim, err := p.Simulate(20, 3)
		if err != nil {
			return Table{}, err
		}
		cost, err := p.ProgramCost(tot.NRE, tot.RE, wright.DefaultAerospace)
		if err != nil {
			return Table{}, err
		}
		t.AddRow(fmt.Sprintf("%d", spares), pct(sim.Availability),
			f2(sim.MeanOperational), f1(sim.UnitsBuilt), f1(cost.Millions()))
	}
	return t, nil
}

// ExtGEO contrasts a LEO SµDC with a GEO one: the GEO relay-class ISL is
// heavier and hungrier, eclipse nearly vanishes, disposal is cheap, but
// the radiation environment forces the COTS-vs-rad-hard decision the
// paper's §VIII discusses.
func ExtGEO() (Table, error) {
	t := Table{
		ID:     "Extension E3",
		Title:  "4 kW SµDC: LEO vs GEO",
		Header: []string{"metric", "LEO 550 km", "GEO"},
	}
	leoCfg := core.DefaultConfig(units.KW(4))
	geoCfg := core.DefaultConfig(units.KW(4))
	geoCfg.Orbit = orbit.GEO()
	geoCfg.ISLLink = fso.GEORelayClass

	leo, err := leoCfg.Build()
	if err != nil {
		return Table{}, err
	}
	geo, err := geoCfg.Build()
	if err != nil {
		return Table{}, err
	}
	leoB, err := leo.Cost()
	if err != nil {
		return Table{}, err
	}
	geoB, err := geo.Cost()
	if err != nil {
		return Table{}, err
	}

	leoDose := leoCfg.Orbit.RadiationAt(200).LifetimeDose(leoCfg.Lifetime)
	geoDose := geoCfg.Orbit.RadiationAt(200).LifetimeDose(geoCfg.Lifetime)

	t.AddRow("eclipse fraction", f2(leoCfg.Orbit.EclipseFraction()), f2(geoCfg.Orbit.EclipseFraction()))
	t.AddRow("mission Δv (m/s)", f0(float64(leoCfg.Orbit.BudgetFor(5).Total(5))),
		f0(float64(geoCfg.Orbit.BudgetFor(5).Total(5))))
	t.AddRow("5-yr TID @200 mils (krad)", f1(float64(leoDose)), f1(float64(geoDose)))
	t.AddRow("COTS GPU TID margin", f1(float64(hardware.RTX3090.TIDToleranceKrad)/float64(leoDose))+"×",
		f1(float64(hardware.RTX3090.TIDToleranceKrad)/float64(geoDose))+"×")
	t.AddRow("BOL power (kW)", f1(leo.Drivers.BOLPower/1e3), f1(geo.Drivers.BOLPower/1e3))
	t.AddRow("battery (kg)", f0(leo.EPS.BatteryMass.Kilograms()), f0(geo.EPS.BatteryMass.Kilograms()))
	t.AddRow("ISL power (W)", f0(float64(leo.ISL.Power)), f0(float64(geo.ISL.Power)))
	t.AddRow("wet mass (kg)", f0(leo.WetMass.Kilograms()), f0(geo.WetMass.Kilograms()))
	t.AddRow("TCO ($M)", f1(leoB.TCO().Millions()), f1(geoB.TCO().Millions()))
	return t, nil
}

// ExtPipelineTiming reports per-network throughput and latency of a
// per-layer accelerator pipeline at the DSE-selected designs.
func ExtPipelineTiming() (Table, error) {
	r, err := DSEResult()
	if err != nil {
		return Table{}, err
	}
	nets := workload.Networks()
	t := Table{
		ID:     "Extension E4",
		Title:  "per-network accelerator pipeline timing (DSE-selected designs)",
		Header: []string{"network", "stages", "throughput /s", "fill latency ms", "bottleneck stage"},
	}
	for _, nr := range r.Networks {
		n := nets[nr.Network]
		cfg := nr.BestConfig
		p, err := accel.BuildPipeline(n, accel.DefaultClockHz, func(workload.Layer) (accel.Config, error) {
			return cfg, nil
		})
		if err != nil {
			return Table{}, err
		}
		thr, err := p.Throughput()
		if err != nil {
			return Table{}, err
		}
		lat, err := p.Latency()
		if err != nil {
			return Table{}, err
		}
		bi, err := p.Bottleneck()
		if err != nil {
			return Table{}, err
		}
		t.AddRow(nr.Network, fmt.Sprintf("%d", len(p.Stages)),
			f1(thr), f1(lat*1e3), p.Stages[bi].Layer.Name)
	}
	return t, nil
}

// ExtBentPipe quantifies the paper's Figure 1 motivation: the bent-pipe
// downlink path versus in-space processing, for the 64-satellite
// constellation — data deficit and latency floor per application class.
func ExtBentPipe() (Table, error) {
	t := Table{
		ID:     "Extension E5",
		Title:  "bent-pipe downlink vs in-space processing (64 satellites, 3 X-band stations)",
		Header: []string{"app", "offered", "deliverable", "deficit", "bent-pipe latency", "SµDC ISL share"},
	}
	net := downlink.DefaultNetwork
	for _, name := range []string{"Flood Detection", "Aircraft Detection", "Traffic Monitoring", "Panoptic Segmentation"} {
		app, err := workload.ByName(name)
		if err != nil {
			return Table{}, err
		}
		b, err := downlink.Plan(orbit.DefaultEO, net, app, 6, 64)
		if err != nil {
			return Table{}, err
		}
		// The SµDC path carries the same raw data over the ISL; its share
		// of a single CONDOR-class link shows how easily a crosslink
		// absorbs what the ground network cannot.
		demand, err := constellation.Default64.DataDemand(app)
		if err != nil {
			return Table{}, err
		}
		t.AddRow(app.Name,
			b.OfferedRate.String(),
			b.DeliverableRate.String(),
			pct(b.DeficitRatio()),
			fmt.Sprintf("%.0f min", b.MeanLatency/60),
			pct(float64(demand)/float64(fso.CondorClass.HeadRate)))
	}
	return t, nil
}

// ExtTradeStudy runs a two-dimensional power×lifetime sweep and reports
// the Pareto front over (minimize TCO, maximize compute) — the
// multi-dimensional generalization of the paper's Figures 4 and 5.
func ExtTradeStudy() (Table, error) {
	pts, err := trade.Sweep(core.DefaultConfig(units.KW(4)), []trade.Dimension{
		trade.ComputePowerKW(0.5, 1, 2, 4, 6, 8, 10),
		trade.LifetimeYears(3, 5, 7, 10),
	})
	if err != nil {
		return Table{}, err
	}
	front, err := trade.ParetoFront(pts, []trade.Objective{trade.MinTCO, trade.MaxComputePower})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Extension E6",
		Title:  fmt.Sprintf("Pareto front of a %d-point power × lifetime sweep (min TCO, max compute)", len(pts)),
		Header: []string{"compute kW", "lifetime yr", "TCO $M", "wet kg", "BOL kW"},
	}
	for _, p := range front {
		t.AddRow(f1(p.Coords["compute kW"]), f0(p.Coords["lifetime yr"]),
			f1(p.TCO.Millions()), f0(p.WetMass.Kilograms()), f1(p.BOLPower.Kilowatts()))
	}
	return t, nil
}
