// Package sudc is a system-level design and total-cost-of-ownership (TCO)
// library for Space Microdatacenters (SµDCs) — satellites hosting
// server-class compute that processes low-Earth-orbit Earth-observation
// imagery in orbit. It reproduces, end to end, the models and experiments
// of "Architecting Space Microdatacenters: A System-level Approach"
// (HPCA 2025).
//
// The package is a facade over the internal model stack:
//
//   - physical sizing: orbits, solar power, active thermal control,
//     propulsion, attitude control, optical inter-satellite links;
//   - costing: an SSCM-style parametric CER model with NRE/RE split,
//     wraps, launch, and operations;
//   - workloads: the Table III Earth-observation application suite and
//     the CNNs behind it;
//   - architecture: an Eyeriss-like accelerator energy model with a
//     7168-point design-space exploration (Global / Per-Network /
//     Per-Layer systems);
//   - system studies: collaborative compute constellations, Wright's-law
//     distributed-vs-monolithic trades, overprovisioning availability,
//     and a discrete-event simulation of the constellation→ISL→SµDC
//     pipeline.
//
// Quickstart:
//
//	design, err := sudc.Design(sudc.Config(4 * sudc.Kilowatt))
//	breakdown, err := design.Cost()
//	fmt.Println(breakdown.TCO())
//
// Every table and figure of the paper's evaluation can be regenerated via
// Experiments / RunExperiment (see also cmd/experiments).
package sudc

import (
	"sudc/internal/core"
	"sudc/internal/experiments"
	"sudc/internal/sscm"
	"sudc/internal/units"
)

// Re-exported quantity types and helpers.
type (
	// Power is electrical power in watts.
	Power = units.Power
	// Dollars is cost in US dollars.
	Dollars = units.Dollars
	// Years is a mission duration in Julian years.
	Years = units.Years
	// DataRate is a channel capacity in bit/s.
	DataRate = units.DataRate
)

// Kilowatt is one kilowatt of electrical power.
const Kilowatt = units.Kilowatt

// KW returns a power of kw kilowatts.
func KW(kw float64) Power { return units.KW(kw) }

// Gbps returns a data rate of g gigabits per second.
func Gbps(g float64) DataRate { return units.GbpsOf(g) }

// SuDCConfig describes a SµDC to design and price; see core.Config for
// the full field list.
type SuDCConfig = core.Config

// SuDCDesign is a closed (mass-converged) physical SµDC design.
type SuDCDesign = core.Design

// CostBreakdown is a full NRE/RE cost estimate by subsystem.
type CostBreakdown = sscm.Breakdown

// Config returns the paper's reference SµDC configuration at the given
// compute power budget: RTX 3090 servers, CONDOR-class ISL auto-sized for
// the design workload, a 550 km orbit, five-year lifetime, and SSCM-SµDC
// costing. Adjust fields before calling Design.
func Config(computePower Power) SuDCConfig {
	return core.DefaultConfig(computePower)
}

// Design closes the physical design: a fixed-point iteration over the
// power/thermal/mass couplings that returns the converged satellite.
func Design(c SuDCConfig) (SuDCDesign, error) {
	return c.Build()
}

// TCO designs and prices the configuration, returning the first-unit
// total cost of ownership (all non-recurring + recurring cost).
func TCO(c SuDCConfig) (Dollars, error) {
	return c.TCO()
}

// Breakdown designs and prices the configuration, returning the full
// per-subsystem cost breakdown.
func Breakdown(c SuDCConfig) (CostBreakdown, error) {
	return c.Breakdown()
}

// Experiment is one paper exhibit (table or figure) that can be
// regenerated; Table is its printable result.
type (
	Experiment = experiments.Experiment
	Table      = experiments.Table
)

// Experiments returns every reproducible exhibit of the paper's
// evaluation, in paper order.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment regenerates one exhibit by ID, ignoring case: a paper
// exhibit ("Figure 5", "Table III"), an ablation ("Ablation A3") or an
// extension ("Extension E8").
func RunExperiment(id string) (Table, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return Table{}, err
	}
	return e.Run()
}
