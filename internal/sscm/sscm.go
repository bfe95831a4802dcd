// Package sscm implements the parametric cost-estimating-relationship (CER)
// model at the heart of the paper's TCO analysis. It mirrors the structure
// of the Aerospace Corporation's Small Satellite Cost Model (SSCM): every
// satellite subsystem has a non-recurring (NRE: design, verification, test,
// management, prototype) and a recurring (RE: procurement, launch, lifetime
// management) cost-estimating relationship in a physical driver (subsystem
// mass, installed power, data rate), plus "wrap" costs (integration,
// assembly & test; program management; launch & orbital operations support)
// proportional to the bus subtotal.
//
// SSCM's actual regression coefficients are proprietary. The CERs here have
// the same power-law-plus-fixed-share form and are calibrated against the
// behaviours the paper reports: the Figure 3 subsystem breakdown of a 4 kW
// SµDC, <4× TCO growth for 20× compute power (Fig. 5), and compute
// hardware below 1 % of TCO. The fixed share of each CER implements the
// paper's stated source of sublinearity: "costs associated with design,
// test, and integration of these subsystems scale sublinearly".
//
// Two parameter sets ship: Reference (SSCM-SµDC-like; active-cooling power
// is costed in the power subsystem) and Alt (SEER-Space-like; active
// cooling is costed in the thermal subsystem). The paper's Figure 3
// discusses exactly this accounting difference.
package sscm

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"sudc/internal/units"
)

// Subsystem enumerates the cost categories of the model.
type Subsystem int

// Subsystems in reporting order.
const (
	Power Subsystem = iota
	Thermal
	Structure
	ADCS
	Propulsion
	CDH
	TTC
	PayloadCompute
	FSOComm
	IAT
	ProgramMgmt
	LOOS
	Launch
	Operations
	numSubsystems
)

var subsystemNames = [...]string{
	"power", "thermal", "structure", "adcs", "propulsion", "cdh", "ttc",
	"payload-compute", "fso-isl", "iat", "program-mgmt", "loos", "launch",
	"operations",
}

func (s Subsystem) String() string {
	if s < 0 || int(s) >= len(subsystemNames) {
		return fmt.Sprintf("Subsystem(%d)", int(s))
	}
	return subsystemNames[s]
}

// Subsystems returns all cost categories in reporting order.
func Subsystems() []Subsystem {
	out := make([]Subsystem, numSubsystems)
	for i := range out {
		out[i] = Subsystem(i)
	}
	return out
}

// CER is one cost-estimating relationship:
//
//	cost(x) = Base × (FixedShare + (1−FixedShare)·(x/RefDriver)^Exp)
//
// Base is the cost at the reference driver value; FixedShare is the
// fraction of that cost that does not scale with the driver.
type CER struct {
	// Base is the cost in dollars at x = RefDriver.
	Base units.Dollars
	// RefDriver is the driver value the Base is anchored at.
	RefDriver float64
	// Exp is the power-law exponent on the scaling share.
	Exp float64
	// FixedShare in [0,1] is the non-scaling fraction of Base.
	FixedShare float64
}

// Eval evaluates the CER at driver value x (clamped at ≥ 0).
func (c CER) Eval(x float64) units.Dollars {
	if c.Base == 0 {
		return 0
	}
	if x < 0 {
		x = 0
	}
	if c.RefDriver <= 0 {
		return c.Base
	}
	scale := math.Pow(x/c.RefDriver, c.Exp)
	return units.Dollars(float64(c.Base) * (c.FixedShare + (1-c.FixedShare)*scale))
}

// Drivers carries the physical design parameters a sized satellite exposes
// to the cost model (the core package computes these).
type Drivers struct {
	// BOLPower is beginning-of-life installed array power, W.
	BOLPower float64
	// ExtraPowerHardwareCost is pass-through recurring cost for power
	// sources the CER regression does not cover (e.g. an RTG's isotope
	// and thermocouples), $.
	ExtraPowerHardwareCost float64
	// PumpBOLPower is the share of BOLPower attributable to the active
	// thermal-control heat pump, W (used for the SSCM/SEER accounting
	// difference).
	PumpBOLPower float64
	// ThermalMass is radiator + pump + loop mass, kg.
	ThermalMass float64
	// StructureMass is bus primary/secondary structure mass, kg.
	StructureMass float64
	// ADCSMass is attitude-control hardware mass, kg.
	ADCSMass float64
	// PropulsionWetMass is propulsion dry mass + propellant, kg.
	PropulsionWetMass float64
	// CDHRateMbps is the C&DH throughput in Mbit/s *after* the FSO→X-band
	// downscaling (see package fso).
	CDHRateMbps float64
	// ComputeHardwareCost is the recurring compute fleet cost, $.
	ComputeHardwareCost float64
	// ComputeMass is packaged compute mass, kg (drives integration cost).
	ComputeMass float64
	// ISLHardwareCost is the optical terminal hardware cost, $.
	ISLHardwareCost float64
	// ISLMass is optical terminal mass, kg.
	ISLMass float64
	// DryMass and WetMass are satellite totals, kg.
	DryMass float64
	WetMass float64
	// Lifetime is the design mission duration.
	Lifetime units.Years
}

// Validate reports obviously inconsistent drivers.
func (d Drivers) Validate() error {
	switch {
	case d.BOLPower < 0 || d.ThermalMass < 0 || d.StructureMass < 0 ||
		d.ADCSMass < 0 || d.PropulsionWetMass < 0 || d.CDHRateMbps < 0 ||
		d.ExtraPowerHardwareCost < 0:
		return errors.New("sscm: negative driver")
	case d.WetMass < d.DryMass:
		return errors.New("sscm: wet mass below dry mass")
	case d.Lifetime <= 0:
		return errors.New("sscm: non-positive lifetime")
	case d.PumpBOLPower > d.BOLPower:
		return errors.New("sscm: pump power exceeds total BOL power")
	}
	return nil
}

// Cost is an NRE/RE pair.
type Cost struct {
	NRE units.Dollars
	RE  units.Dollars
}

// FirstUnit is NRE + RE — the cost of the first satellite (paper §II).
func (c Cost) FirstUnit() units.Dollars { return c.NRE + c.RE }

// Add returns the sum of two costs.
func (c Cost) Add(o Cost) Cost { return Cost{NRE: c.NRE + o.NRE, RE: c.RE + o.RE} }

// Scale returns the cost with both components multiplied by f.
func (c Cost) Scale(f float64) Cost {
	return Cost{NRE: units.Dollars(float64(c.NRE) * f), RE: units.Dollars(float64(c.RE) * f)}
}

// Breakdown is a full cost estimate by subsystem.
type Breakdown struct {
	Items map[Subsystem]Cost
}

// Total sums all subsystems. Summation is in subsystem order so the result
// is deterministic (float addition is not associative across map order).
func (b Breakdown) Total() Cost {
	var t Cost
	for _, it := range b.SortedItems() {
		t = t.Add(it.Cost)
	}
	return t
}

// TCO returns the first-unit total cost of ownership: all NRE + all RE.
func (b Breakdown) TCO() units.Dollars { return b.Total().FirstUnit() }

// Share returns subsystem s's fraction of first-unit TCO.
func (b Breakdown) Share(s Subsystem) float64 {
	t := float64(b.TCO())
	if t == 0 {
		return 0
	}
	return float64(b.Items[s].FirstUnit()) / t
}

// SortedItems returns (subsystem, cost) pairs in reporting order, for
// stable printing.
func (b Breakdown) SortedItems() []struct {
	Subsystem Subsystem
	Cost      Cost
} {
	keys := make([]Subsystem, 0, len(b.Items))
	for k := range b.Items {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]struct {
		Subsystem Subsystem
		Cost      Cost
	}, len(keys))
	for i, k := range keys {
		out[i] = struct {
			Subsystem Subsystem
			Cost      Cost
		}{k, b.Items[k]}
	}
	return out
}

// Model is a full CER parameter set.
type Model struct {
	Name string
	// Subsystem CERs (hardware-bearing categories).
	PowerCER      CER // driver: BOL power, W
	ThermalCER    CER // driver: thermal mass, kg
	StructureCER  CER // driver: structure mass, kg
	ADCSCER       CER // driver: ADCS mass, kg
	PropulsionCER CER // driver: propulsion wet mass, kg
	CDHCER        CER // driver: C&DH rate, Mbit/s (X-band equivalent)
	TTCCER        CER // driver: dry mass, kg (antenna/EIRP scales weakly)

	// Payload integration CERs (hardware cost itself is pass-through).
	ComputeIntegrationPerKg units.Dollars
	ISLIntegrationPerKg     units.Dollars

	// Wrap fractions applied to the bus subtotal (hardware subsystems).
	IATFraction  float64
	PMFraction   float64
	LOOSFraction float64

	// LaunchPerKg is launch cost per wet kg.
	LaunchPerKg units.Dollars
	// OpsPerYear is the baseline operations cost per year; it scales with
	// sqrt of dry mass relative to OpsRefDryMass.
	OpsPerYear    units.Dollars
	OpsRefDryMass float64

	// Reliability growth: NRE and RE multipliers grow linearly with
	// lifetime beyond RefLifetime ("NRE and RE costs increase with
	// lifetime, as additional reliability features are required").
	RefLifetime   units.Years
	NREPerYear    float64
	REPerYear     float64
	NREShareOfRef float64 // NRE at the reference point = share × RE
	// NREExp is the exponent coupling NRE to RE across satellite sizes:
	// NRE = NREShareOfRef · Base · (RE/Base)^NREExp. Design, qualification
	// and test effort shrinks far more slowly than recurring hardware cost
	// when the satellite shrinks (NREExp < 1) — which is what keeps a
	// monolithic design competitive against many small satellites under
	// weak learning (Fig. 23).
	NREExp float64

	// ActiveCoolingInThermal books heat-pump power cost under the thermal
	// subsystem (SEER-Space style) instead of power (SSCM-SµDC style).
	ActiveCoolingInThermal bool
}

// Reference returns the SSCM-SµDC-like parameter set. CER bases are
// anchored at the paper's 4 kW reference design point.
func Reference() Model {
	return Model{
		Name: "SSCM-SµDC",
		// 4 kW reference drivers: BOL ≈ 10.6 kW, thermal ≈ 64 kg,
		// structure ≈ 125 kg, ADCS ≈ 14 kg, propulsion wet ≈ 100 kg,
		// C&DH ≈ 130 Mbit/s X-band-equivalent, dry ≈ 650 kg.
		PowerCER:      CER{Base: units.MUSD(17.0), RefDriver: 10600, Exp: 0.87, FixedShare: 0.12},
		ThermalCER:    CER{Base: units.MUSD(2.4), RefDriver: 100, Exp: 0.75, FixedShare: 0.20},
		StructureCER:  CER{Base: units.MUSD(3.2), RefDriver: 135, Exp: 0.75, FixedShare: 0.20},
		ADCSCER:       CER{Base: units.MUSD(2.8), RefDriver: 15, Exp: 0.60, FixedShare: 0.15},
		PropulsionCER: CER{Base: units.MUSD(4.8), RefDriver: 80, Exp: 0.65, FixedShare: 0.25},
		CDHCER:        CER{Base: units.MUSD(2.2), RefDriver: 130, Exp: 0.28, FixedShare: 0.30},
		TTCCER:        CER{Base: units.MUSD(1.0), RefDriver: 700, Exp: 0.20, FixedShare: 0.40},

		ComputeIntegrationPerKg: 1500,
		ISLIntegrationPerKg:     8000,

		IATFraction:  0.15,
		PMFraction:   0.12,
		LOOSFraction: 0.05,

		LaunchPerKg:   3500,
		OpsPerYear:    units.MUSD(0.8),
		OpsRefDryMass: 650,

		RefLifetime:   5,
		NREPerYear:    0.06,
		REPerYear:     0.04,
		NREShareOfRef: 0.89,
		NREExp:        0.60,
	}
}

// Alt returns the SEER-Space-like parameter set: the same physical model
// but with active-cooling power booked under thermal, a cheaper ADCS (no
// fine-grained pointing parameters) and a costlier propulsion treatment
// replaced by an ion-tolerant one (paper Fig. 3 discussion: SEER
// under-books ADCS and SSCM-SµDC over-books propulsion).
func Alt() Model {
	m := Reference()
	m.Name = "SEER-like"
	m.ActiveCoolingInThermal = true
	m.ADCSCER.Base = units.MUSD(2.6)       // coarse stock pointing model
	m.PropulsionCER.Base = units.MUSD(3.4) // ion-thruster-aware CER
	m.StructureCER.Base = units.MUSD(3.0)
	return m
}

// Estimate produces the full NRE/RE breakdown for the drivers.
func (m Model) Estimate(d Drivers) (Breakdown, error) {
	if err := d.Validate(); err != nil {
		return Breakdown{}, err
	}

	// Accounting switch: under SEER-like accounting the power subsystem is
	// costed on the array power net of the pump's share, and the pump's
	// share is costed through the thermal subsystem at the power CER rate.
	powerDriver := d.BOLPower
	var pumpPowerCost Cost
	if m.ActiveCoolingInThermal && d.PumpBOLPower > 0 {
		powerDriver = d.BOLPower - d.PumpBOLPower
		full := m.hw(m.PowerCER, d.BOLPower)
		net := m.hw(m.PowerCER, powerDriver)
		pumpPowerCost = Cost{NRE: full.NRE - net.NRE, RE: full.RE - net.RE}
	}

	powerCost := m.hw(m.PowerCER, powerDriver)
	if d.ExtraPowerHardwareCost > 0 {
		powerCost = powerCost.Add(Cost{
			RE:  units.Dollars(d.ExtraPowerHardwareCost),
			NRE: units.Dollars(0.3 * d.ExtraPowerHardwareCost),
		})
	}
	items := map[Subsystem]Cost{
		Power:      powerCost,
		Thermal:    m.hw(m.ThermalCER, d.ThermalMass).Add(pumpPowerCost),
		Structure:  m.hw(m.StructureCER, d.StructureMass),
		ADCS:       m.hw(m.ADCSCER, d.ADCSMass),
		Propulsion: m.hw(m.PropulsionCER, d.PropulsionWetMass),
		CDH:        m.hw(m.CDHCER, d.CDHRateMbps),
		TTC:        m.hw(m.TTCCER, d.DryMass),
	}

	// Payloads: hardware is pass-through RE; integration per kg; a small
	// NRE share for payload accommodation engineering.
	computeRE := d.ComputeHardwareCost + float64(m.ComputeIntegrationPerKg)*d.ComputeMass
	items[PayloadCompute] = Cost{
		RE:  units.Dollars(computeRE),
		NRE: units.Dollars(0.5 * computeRE),
	}
	islRE := d.ISLHardwareCost + float64(m.ISLIntegrationPerKg)*d.ISLMass
	items[FSOComm] = Cost{
		RE:  units.Dollars(islRE),
		NRE: units.Dollars(0.6 * islRE),
	}

	// Lifetime reliability growth on hardware subsystems. Iterate in
	// fixed subsystem order so the float accumulation is deterministic.
	dl := float64(d.Lifetime - m.RefLifetime)
	nreMult := math.Max(0.5, 1+m.NREPerYear*dl)
	reMult := math.Max(0.5, 1+m.REPerYear*dl)
	var busSubtotal Cost
	for _, s := range Subsystems() {
		c, ok := items[s]
		if !ok {
			continue
		}
		c = Cost{
			NRE: units.Dollars(float64(c.NRE) * nreMult),
			RE:  units.Dollars(float64(c.RE) * reMult),
		}
		items[s] = c
		busSubtotal = busSubtotal.Add(c)
	}

	// Wraps.
	items[IAT] = busSubtotal.Scale(m.IATFraction)
	items[ProgramMgmt] = busSubtotal.Scale(m.PMFraction)
	items[LOOS] = busSubtotal.Scale(m.LOOSFraction)

	// Launch (pure RE) and operations (pure RE, lifetime-proportional).
	items[Launch] = Cost{RE: units.Dollars(float64(m.LaunchPerKg) * d.WetMass)}
	opsScale := 1.0
	if m.OpsRefDryMass > 0 && d.DryMass > 0 {
		opsScale = math.Sqrt(d.DryMass / m.OpsRefDryMass)
	}
	items[Operations] = Cost{
		RE: units.Dollars(float64(m.OpsPerYear) * float64(d.Lifetime) * opsScale),
	}

	return Breakdown{Items: items}, nil
}

// hw builds the NRE/RE pair for a hardware CER: RE is the CER value; NRE
// couples to it sublinearly — equal to NREShareOfRef × RE at the reference
// point, but shrinking (growing) much more slowly than RE away from it.
func (m Model) hw(c CER, driver float64) Cost {
	re := c.Eval(driver)
	nre := 0.0
	if c.Base > 0 && re > 0 {
		nre = m.NREShareOfRef * float64(c.Base) *
			math.Pow(float64(re)/float64(c.Base), m.NREExp)
	}
	return Cost{RE: re, NRE: units.Dollars(nre)}
}

// jsonItem is the serialized form of one subsystem's cost.
type jsonItem struct {
	Subsystem string  `json:"subsystem"`
	NRE       float64 `json:"nre_usd"`
	RE        float64 `json:"re_usd"`
	Share     float64 `json:"share_of_tco"`
}

// jsonBreakdown is the serialized form of a Breakdown.
type jsonBreakdown struct {
	Items []jsonItem `json:"items"`
	NRE   float64    `json:"total_nre_usd"`
	RE    float64    `json:"total_re_usd"`
	TCO   float64    `json:"tco_usd"`
}

// MarshalJSON serializes the breakdown with subsystem names and totals —
// the machine-readable counterpart of SortedItems for downstream tooling.
func (b Breakdown) MarshalJSON() ([]byte, error) {
	out := jsonBreakdown{Items: make([]jsonItem, 0, len(b.Items))}
	for _, it := range b.SortedItems() {
		out.Items = append(out.Items, jsonItem{
			Subsystem: it.Subsystem.String(),
			NRE:       float64(it.Cost.NRE),
			RE:        float64(it.Cost.RE),
			Share:     b.Share(it.Subsystem),
		})
	}
	tot := b.Total()
	out.NRE = float64(tot.NRE)
	out.RE = float64(tot.RE)
	out.TCO = float64(b.TCO())
	return json.Marshal(out)
}
