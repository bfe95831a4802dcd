// Package orbit models the low-Earth-orbit environment a SµDC operates in:
// orbital geometry (period, eclipse fraction), the station-keeping and
// deorbit Δv budget that drives propellant mass, and the ionizing-radiation
// environment that drives the COTS-vs-rad-hard hardware decision (paper
// §VIII).
package orbit

import (
	"errors"
	"fmt"
	"math"

	"sudc/internal/units"
)

// Orbit describes a circular orbit by altitude and inclination.
type Orbit struct {
	// AltitudeM is the orbit altitude above the surface in meters.
	AltitudeM float64
	// InclinationDeg is the orbital inclination in degrees.
	InclinationDeg float64
}

// LEO returns a typical Earth-observation LEO at the given altitude (m)
// in a sun-synchronous-like 97.5° inclination.
func LEO(altitudeM float64) Orbit {
	return Orbit{AltitudeM: altitudeM, InclinationDeg: 97.5}
}

// DefaultEO is the reference 550 km orbit used throughout the paper's
// analysis (Starlink-class altitude).
var DefaultEO = LEO(550e3)

// GEOAltitudeM is the geostationary altitude in meters.
const GEOAltitudeM = 35786e3

// GEO returns the geostationary orbit — the regime the paper contrasts
// with LEO when arguing COTS hardware suffices (§VIII: GEO satellites
// inside the outer van Allen belt see ~8× the LEO dose rate and need
// rad-hard parts).
func GEO() Orbit {
	return Orbit{AltitudeM: GEOAltitudeM, InclinationDeg: 0}
}

// IsGEO reports whether the orbit is in the geosynchronous regime.
func (o Orbit) IsGEO() bool { return o.AltitudeM > 10000e3 }

// SemiMajorAxis returns the orbit's semi-major axis in meters.
func (o Orbit) SemiMajorAxis() float64 { return units.EarthRadius + o.AltitudeM }

// Period returns the orbital period in seconds: 2π√(a³/µ).
func (o Orbit) Period() float64 {
	a := o.SemiMajorAxis()
	return 2 * math.Pi * math.Sqrt(a*a*a/units.EarthMu)
}

// EclipseFraction returns the worst-case fraction of the orbit spent in
// Earth's shadow, using the cylindrical-shadow approximation for a circular
// orbit with the sun in the orbit plane (β = 0): the satellite is eclipsed
// while it is within the half-angle asin(Re/a) of the anti-sun direction.
//
// For a 550 km orbit this is ≈ 0.38, the canonical LEO design value.
func (o Orbit) EclipseFraction() float64 {
	a := o.SemiMajorAxis()
	halfAngle := math.Asin(units.EarthRadius / a)
	return halfAngle / math.Pi
}

func (o Orbit) String() string {
	return fmt.Sprintf("%.0f km × %.1f°", o.AltitudeM/1e3, o.InclinationDeg)
}

// Validate reports an error for physically meaningless orbits.
func (o Orbit) Validate() error {
	if o.AltitudeM < 120e3 {
		return errors.New("orbit: altitude below 120 km decays immediately")
	}
	if o.AltitudeM > 2000e3 && !o.IsGEO() {
		return errors.New("orbit: altitude between LEO and GEO regimes is unsupported")
	}
	if o.AltitudeM > GEOAltitudeM+1e6 {
		return errors.New("orbit: altitude above GEO is unsupported")
	}
	if o.InclinationDeg < 0 || o.InclinationDeg > 180 {
		return fmt.Errorf("orbit: inclination %.1f° out of range [0,180]", o.InclinationDeg)
	}
	return nil
}

// DragDecayRate returns the approximate station-keeping Δv in m/s per year
// required to counter atmospheric drag at the orbit's altitude, using an
// exponential atmosphere fit anchored at published drag make-up budgets
// (~20 m/s/yr at 400 km ISS-like conditions, a few m/s/yr at 550 km).
//
// The exact value varies with solar activity and ballistic coefficient;
// the paper only requires that fuel mass scales linearly with lifetime and
// satellite mass, which this preserves.
func (o Orbit) DragDecayRate() float64 {
	// Scale height ~60 km in the relevant thermosphere band.
	const (
		refAltM    = 400e3
		refDvPerYr = 20.0
		scaleH     = 60e3
	)
	return refDvPerYr * math.Exp(-(o.AltitudeM-refAltM)/scaleH)
}

// DeltaVBudget is the mission Δv allocation that sizes the propellant load.
type DeltaVBudget struct {
	// StationKeepingPerYear is drag make-up and phasing, m/s per year.
	StationKeepingPerYear float64
	// Deorbit is the end-of-life disposal burn, m/s.
	Deorbit float64
	// Margin is a multiplicative reserve (e.g. 0.1 for 10 %).
	Margin float64
}

// BudgetFor builds the Δv budget for a mission of the given lifetime on
// this orbit, including a controlled-deorbit allocation (a Hohmann-like
// transfer to a 50 km disposal perigee) and a 10 % reserve.
func (o Orbit) BudgetFor(lifetime units.Years) DeltaVBudget {
	return DeltaVBudget{
		StationKeepingPerYear: o.DragDecayRate(),
		Deorbit:               o.deorbitDv(),
		Margin:                0.10,
	}
}

// deorbitDv returns the end-of-life disposal Δv: for LEO, a
// perigee-lowering burn to 50 km (the first half of a Hohmann transfer);
// for GEO, a ~300 km graveyard-orbit raise (~11 m/s).
func (o Orbit) deorbitDv() float64 {
	if o.IsGEO() {
		return 11
	}
	a1 := o.SemiMajorAxis()
	rp := units.EarthRadius + 50e3
	at := (a1 + rp) / 2
	vCirc := math.Sqrt(units.EarthMu / a1)
	vApo := math.Sqrt(units.EarthMu * (2/a1 - 1/at))
	return vCirc - vApo
}

// Total returns the full-mission Δv in m/s for the given lifetime.
func (b DeltaVBudget) Total(lifetime units.Years) units.Velocity {
	raw := b.StationKeepingPerYear*float64(lifetime) + b.Deorbit
	return units.Velocity(raw * (1 + b.Margin))
}

// RadiationEnvironment captures the annual total-ionizing-dose rate behind
// a given aluminum shield thickness, per paper §VIII ([48], [71]).
type RadiationEnvironment struct {
	// DosePerYear is the TID accumulation rate in krad(Si)/yr.
	DosePerYear units.Dose
	// ShieldingMils is the aluminum shield thickness in mils (1/1000 in).
	ShieldingMils float64
	// Regime names the orbital regime ("LEO", "GEO", …).
	Regime string
}

// RadiationAt returns the TID environment for the orbit behind the given
// shielding. Anchored at the paper's cited values: non-polar LEO sees
// ~0.5 krad(Si)/yr at 200 mils, ~0.2 at 400 mils.
func (o Orbit) RadiationAt(shieldingMils float64) RadiationEnvironment {
	if o.IsGEO() {
		return GEORadiation(shieldingMils)
	}
	if shieldingMils <= 0 {
		shieldingMils = 100
	}
	// Empirical two-point exponential fit through (200 mils, 0.5 krad/yr)
	// and (400 mils, 0.2 krad/yr): dose = 1.25·exp(-mils/218.3).
	const (
		amp   = 1.25
		scale = 218.3
	)
	dose := amp * math.Exp(-shieldingMils/scale)
	// Polar and near-polar orbits pass through the auroral horns; apply a
	// modest multiplier above 80° inclination.
	if o.InclinationDeg > 80 && o.InclinationDeg < 100 {
		dose *= 1.3
	}
	return RadiationEnvironment{
		DosePerYear:   units.Dose(dose),
		ShieldingMils: shieldingMils,
		Regime:        "LEO",
	}
}

// GEORadiation returns the GEO environment at the given shielding,
// anchored at the paper's cited 4 krad(Si)/yr behind 200 mils.
func GEORadiation(shieldingMils float64) RadiationEnvironment {
	if shieldingMils <= 0 {
		shieldingMils = 100
	}
	const (
		amp   = 10.0
		scale = 218.3
	)
	return RadiationEnvironment{
		DosePerYear:   units.Dose(amp * math.Exp(-shieldingMils/scale)),
		ShieldingMils: shieldingMils,
		Regime:        "GEO",
	}
}

// LifetimeDose returns the accumulated TID over a mission lifetime.
func (r RadiationEnvironment) LifetimeDose(lifetime units.Years) units.Dose {
	return units.Dose(float64(r.DosePerYear) * float64(lifetime))
}
