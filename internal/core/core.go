// Package core implements the paper's primary contribution: the SµDC
// (Space Microdatacenter) design and TCO model. Given a compute power
// budget and an architecture, it closes the physical design — compute
// fleet, FSO inter-satellite links, active thermal control, solar power,
// attitude control, propulsion, structure — through a fixed-point mass
// iteration, then prices the result with the SSCM-style CER model.
//
// The closure captures the couplings the paper identifies as the reason
// power dominates SµDC TCO: compute power raises heat load, which raises
// heat-pump power, which raises array power and mass, which raises dry
// mass, which raises fuel, ADCS and structure mass, which raises launch
// and subsystem cost.
package core

import (
	"errors"
	"fmt"
	"math"

	"sudc/internal/adcs"
	"sudc/internal/compress"
	"sudc/internal/fso"
	"sudc/internal/hardware"
	"sudc/internal/orbit"
	"sudc/internal/par"
	"sudc/internal/propulsion"
	"sudc/internal/solar"
	"sudc/internal/sscm"
	"sudc/internal/thermal"
	"sudc/internal/units"
	"sudc/internal/workload"
)

// Config describes a SµDC to design and price.
type Config struct {
	// ComputePower is the end-of-life electrical budget for the compute
	// payload (the paper's primary design variable, 0.5–10 kW).
	ComputePower units.Power
	// Server is the compute architecture filling that budget.
	Server hardware.Server
	// Orbit the SµDC flies in.
	Orbit orbit.Orbit
	// Lifetime is the design mission duration (paper default: 5 years).
	Lifetime units.Years
	// ISLRate is the aggregate FSO capacity to install. Zero means
	// auto-size for the design workload (see DesignISLRate).
	ISLRate units.DataRate
	// OmitISL builds the satellite with no optical link at all — the
	// zero-communication baseline of the paper's Figure 7.
	OmitISL bool
	// ISLLink is the optical inter-satellite-link technology.
	ISLLink fso.Link
	// Compression applied to imagery before the ISL (reduces the installed
	// rate; decode power excluded as in the paper's upper-bound analysis
	// unless IncludeDecodePower is set).
	Compression compress.Algorithm
	// IncludeDecodePower charges the receiver-side decompression power to
	// the payload — the refinement the paper's Figure 10 deliberately
	// omits ("these are upper bounds on the possible TCO improvements").
	IncludeDecodePower bool
	// Radiator and HeatPump define the thermal subsystem. PassiveThermal
	// drops the heat pump: the radiator runs at the cold-plate temperature
	// and grows by the T⁴ law instead.
	Radiator       thermal.Radiator
	HeatPump       thermal.HeatPump
	PassiveThermal bool
	// Solar is the EPS technology set (orbit/lifetime fields are
	// overwritten from this config). RTG, if non-nil, replaces the solar
	// EPS with a radioisotope generator (the paper's "nuclear batteries
	// for distant missions" option [63]).
	Solar solar.Config
	RTG   *solar.RTG
	// ADCS configuration.
	ADCS adcs.Config
	// Thruster technology for station-keeping and deorbit.
	Thruster propulsion.Thruster
	// AvionicsPower is the fixed bus housekeeping draw (C&DH, TT&C,
	// heaters) excluding ADCS, which is sized separately.
	AvionicsPower units.Power
	// CostModel prices the closed design.
	CostModel sscm.Model
}

// DefaultConfig returns the paper's reference design at the given compute
// power: RTX 3090 servers, CONDOR-class ISL auto-sized for the design
// workload, 550 km orbit, 5-year lifetime, SSCM-SµDC costing.
func DefaultConfig(computePower units.Power) Config {
	return Config{
		ComputePower:  computePower,
		Server:        hardware.DefaultServer(hardware.RTX3090),
		Orbit:         orbit.DefaultEO,
		Lifetime:      5,
		ISLLink:       fso.CondorClass,
		Compression:   compress.None,
		Radiator:      thermal.DefaultRadiator,
		HeatPump:      thermal.DefaultHeatPump,
		Solar:         solar.DefaultConfig(),
		ADCS:          adcs.DefaultConfig(),
		Thruster:      propulsion.Monopropellant,
		AvionicsPower: 70,
		CostModel:     sscm.Reference(),
	}
}

// DesignISLRate returns the ISL capacity the reference designs install for
// a compute budget: the saturation rate of the geometric-mean workload
// (pixel throughput × bits/pixel over the Table III suite).
func DesignISLRate(budget units.Power) units.DataRate {
	if budget <= 0 {
		return 0
	}
	var logSum float64
	for _, a := range workload.Suite {
		logSum += math.Log(a.KPixelPerJoule)
	}
	geo := math.Exp(logSum / float64(len(workload.Suite)))
	return units.DataRate(float64(budget) * geo * 1e3 * workload.BitsPerPixel)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ComputePower <= 0 {
		return errors.New("core: compute power must be positive")
	}
	if c.Lifetime <= 0 {
		return errors.New("core: lifetime must be positive")
	}
	if c.Server.Device.TDP <= 0 {
		return fmt.Errorf("core: server device %q has no TDP", c.Server.Device.Name)
	}
	if c.Server.SpecificPower <= 0 {
		return errors.New("core: server needs positive specific power")
	}
	if err := c.Orbit.Validate(); err != nil {
		return err
	}
	if err := c.ADCS.Validate(); err != nil {
		return err
	}
	if c.Compression.Name != "" {
		if err := c.Compression.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Design is a closed (mass-converged) SµDC physical design.
type Design struct {
	Config Config

	// Compute payload (continuously sized: the budget is fully allocated).
	ComputePower units.Power
	ComputeMass  units.Mass
	ComputeCost  units.Dollars

	// ISL is the sized optical link subsystem; InstalledISLRate is the
	// post-compression capacity actually installed.
	ISL              fso.Design
	InstalledISLRate units.DataRate

	// Thermal, EPS, ADCS, Propulsion are the sized subsystems.
	Thermal    thermal.Design
	EPS        solar.Design
	ADCS       adcs.Design
	Propulsion propulsion.Design

	// StructureMass, CDHMass, TTCMass complete the bus.
	StructureMass units.Mass
	CDHMass       units.Mass
	TTCMass       units.Mass

	// EOLPower is the total end-of-life electrical load.
	EOLPower units.Power
	// DryMass and WetMass are the converged satellite masses.
	DryMass units.Mass
	WetMass units.Mass

	// Drivers are the cost-model inputs derived from the design.
	Drivers sscm.Drivers
}

// Bus sizing constants.
const (
	// structureFraction is primary+secondary structure as a fraction of
	// dry mass (standard smallsat budget).
	structureFraction = 0.20
	// cdhBaseMass and cdhMassPerMbps size the C&DH unit.
	cdhBaseMass    = 12.0
	cdhMassPerMbps = 0.02
	// ttcMass is the fixed TT&C transponder/antenna mass.
	ttcMass = 10.0
	// massTolerance ends the fixed-point iteration (kg).
	massTolerance = 1e-4
	maxIterations = 200
)

// Build closes the design: it iterates the mass/power couplings to a fixed
// point and returns the converged physical design with its cost drivers.
func (c Config) Build() (Design, error) {
	if err := c.Validate(); err != nil {
		return Design{}, err
	}

	// Compute payload: continuous sizing so TCO curves are smooth in the
	// budget (the paper's curves treat power as a continuous variable).
	computeMass := c.Server.SpecificPower.MassFor(c.ComputePower)
	perDevice := float64(c.Server.Device.TDP)
	computeCost := units.Dollars(float64(c.ComputePower) / perDevice *
		float64(c.Server.Device.Price) * c.Server.IntegrationCostFactor)

	// ISL: auto-size if unset, then shrink by compression.
	rate := c.ISLRate
	if rate == 0 {
		rate = DesignISLRate(c.ComputePower)
	}
	if c.OmitISL {
		rate = 0
	}
	if c.Compression.Name != "" && c.Compression.Ratio > 1 {
		var err error
		rate, err = c.Compression.CompressedRate(rate)
		if err != nil {
			return Design{}, err
		}
	}
	isl, err := fso.Size(c.ISLLink, rate)
	if err != nil {
		return Design{}, err
	}

	payloadPower := c.ComputePower + isl.Power
	if c.IncludeDecodePower && c.Compression.Name != "" && !c.OmitISL {
		// Decode power is charged on the raw (decoded) stream.
		raw := c.ISLRate
		if raw == 0 {
			raw = DesignISLRate(c.ComputePower)
		}
		payloadPower += c.Compression.DecodePower(raw)
	}

	solarCfg := c.Solar
	solarCfg.Orbit = c.Orbit
	solarCfg.Lifetime = c.Lifetime

	xband := fso.XBandEquivalent(c.ISLLink, rate)
	cdhMass := units.Mass(cdhBaseMass + cdhMassPerMbps*float64(xband)/1e6)

	// Fixed-point iteration over dry mass: ADCS power and propellant both
	// depend on the dry mass they help create.
	var (
		dry        = units.Mass(300) // starting guess
		th         thermal.Design
		eps        solar.Design
		ad         adcs.Design
		prop       propulsion.Design
		structMass units.Mass
		eol        units.Power
		converged  bool
	)
	budget := c.Orbit.BudgetFor(c.Lifetime)
	dv := budget.Total(c.Lifetime)

	for i := 0; i < maxIterations; i++ {
		ad, err = adcs.Size(c.ADCS, dry)
		if err != nil {
			return Design{}, err
		}
		busPower := c.AvionicsPower + ad.Power
		heatLoad := payloadPower + busPower

		if c.PassiveThermal {
			th, err = thermal.SizePassive(heatLoad, c.Radiator, c.HeatPump.Cold)
		} else {
			th, err = thermal.Size(heatLoad, c.Radiator, c.HeatPump)
		}
		if err != nil {
			return Design{}, err
		}
		eol = heatLoad + th.PumpPower

		if c.RTG != nil {
			eps, err = solar.SizeRTG(*c.RTG, eol, c.Lifetime)
		} else {
			eps, err = solarCfg.Size(eol)
		}
		if err != nil {
			return Design{}, err
		}

		prop, err = propulsion.Size(c.Thruster, dry, dv)
		if err != nil {
			return Design{}, err
		}

		// Structure is a fraction of dry mass: solve
		// dry = other + structureFraction·dry.
		other := computeMass + isl.Mass + th.TotalMass() + eps.TotalMass() +
			ad.Mass + cdhMass + units.Mass(ttcMass) + prop.DryMass
		newDry := other / (1 - structureFraction)
		structMass = newDry - other

		if math.Abs(float64(newDry-dry)) < massTolerance {
			dry = newDry
			converged = true
			break
		}
		dry = newDry
	}
	if !converged {
		return Design{}, errors.New("core: mass iteration did not converge")
	}

	wet := dry + prop.Propellant

	// Pump share of BOL power for the SSCM/SEER accounting split.
	pumpBOL := 0.0
	if eol > 0 {
		pumpBOL = float64(eps.BOLArrayPower) * float64(th.PumpPower) / float64(eol)
	}

	extraPowerHW := 0.0
	if c.RTG != nil {
		extraPowerHW = float64(eps.HardwareCost)
	}

	d := Design{
		Config:           c,
		ComputePower:     c.ComputePower,
		ComputeMass:      computeMass,
		ComputeCost:      computeCost,
		ISL:              isl,
		InstalledISLRate: rate,
		Thermal:          th,
		EPS:              eps,
		ADCS:             ad,
		Propulsion:       prop,
		StructureMass:    structMass,
		CDHMass:          cdhMass,
		TTCMass:          units.Mass(ttcMass),
		EOLPower:         eol,
		DryMass:          dry,
		WetMass:          wet,
		Drivers: sscm.Drivers{
			BOLPower:               float64(eps.BOLArrayPower),
			ExtraPowerHardwareCost: extraPowerHW,
			PumpBOLPower:           pumpBOL,
			ThermalMass:            float64(th.TotalMass()),
			StructureMass:          float64(structMass),
			ADCSMass:               float64(ad.Mass),
			PropulsionWetMass:      float64(prop.WetMass()),
			CDHRateMbps:            float64(xband) / 1e6,
			ComputeHardwareCost:    float64(computeCost),
			ComputeMass:            float64(computeMass),
			ISLHardwareCost:        float64(isl.HardwareCost),
			ISLMass:                float64(isl.Mass),
			DryMass:                float64(dry),
			WetMass:                float64(wet),
			Lifetime:               c.Lifetime,
		},
	}
	return d, nil
}

// Cost prices the design with its configured cost model.
func (d Design) Cost() (sscm.Breakdown, error) {
	return d.Config.CostModel.Estimate(d.Drivers)
}

// TCO builds and prices the configuration, returning the first-unit total
// cost of ownership.
func (c Config) TCO() (units.Dollars, error) {
	b, err := c.Breakdown()
	if err != nil {
		return 0, err
	}
	return b.TCO(), nil
}

// Breakdown builds and prices the configuration.
func (c Config) Breakdown() (sscm.Breakdown, error) {
	d, err := c.Build()
	if err != nil {
		return sscm.Breakdown{}, err
	}
	return d.Cost()
}

// SweepTCO evaluates the TCO of each configuration across the shared
// parallel engine, returning results in input order. It is the substrate
// for the power/lifetime/φ grid sweeps the experiment figures iterate.
func SweepTCO(cfgs []Config) ([]units.Dollars, error) {
	return par.MapErr(cfgs, func(c Config) (units.Dollars, error) { return c.TCO() })
}

// MassItem is one row of a design's mass budget.
type MassItem struct {
	Name string
	Mass units.Mass
}

// MassBreakdown returns the satellite mass budget, heaviest first order
// not guaranteed — rows are in canonical reporting order.
func (d Design) MassBreakdown() []MassItem {
	return []MassItem{
		{"compute", d.ComputeMass},
		{"fso-isl", d.ISL.Mass},
		{"thermal", d.Thermal.TotalMass()},
		{"power", d.EPS.TotalMass()},
		{"adcs", d.ADCS.Mass},
		{"cdh", d.CDHMass},
		{"ttc", d.TTCMass},
		{"propulsion-dry", d.Propulsion.DryMass},
		{"structure", d.StructureMass},
		{"propellant", d.Propulsion.Propellant},
	}
}

// ComputeMassShare returns compute's fraction of total wet mass (the
// paper: "computer hardware is light — making up only a few percent of
// total mass").
func (d Design) ComputeMassShare() float64 {
	if d.WetMass == 0 {
		return 0
	}
	return float64(d.ComputeMass) / float64(d.WetMass)
}
