// Package degrade is the environment-coupled degradation engine: it
// compiles an orbit profile (eclipse phases from package orbit,
// steady-state panel temperatures from package thermal, the eclipse
// power budget the solar sizing assumes) together with a COTS hardware
// calibration (temperature→service-rate throttle curve, eclipse power
// fraction, temperature-modulated SEFI intensity) into a
// piecewise-constant modulation Schedule that a discrete-event
// simulation replays allocation-free.
//
// The calibration shape follows the measured COTS-in-orbit behavior
// reported by Xing et al. ("Deciphering the Enigma of Satellite
// Computing with COTS Devices", PAPERS.md): commercial hardware in
// orbit does not fail cleanly — it throttles under thermal stress,
// loses capacity on the eclipse power budget, and sees elevated
// transient-fault rates when hot. The IntegratedPanel calibration is
// the milder envelope of a Gaalema-style integrated solar-radiator
// panel with more rejection area per watt.
//
// Determinism contract: Build is a pure function of (Profile, horizon)
// and draws no randomness, so a Schedule can be shared read-only
// between shard cells exactly like a compiled fault schedule; the
// per-phase fault-intensity multipliers export as a
// faults.RateEnvelope, keeping the modulated SEFI draws a pure
// function of (Scenario, Profile, seed). At Severity 0 every
// multiplier is exactly 1 (the scaling is 1 − Sev·(1−x), not a
// product), so a zero-severity schedule is detected by Identity() and
// the caller can drop to the nil fast path, byte-identical to a run
// with no degradation at all.
package degrade

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sudc/internal/faults"
	"sudc/internal/orbit"
)

// ThrottlePoint is one knot of the throttle curve: at cold-plate
// temperature TempC (°C) the hardware serves at RateMult of its rated
// throughput. Points between knots interpolate linearly; temperatures
// outside the knot range clamp to the nearest knot.
type ThrottlePoint struct {
	TempC    float64
	RateMult float64
}

// Calibration is a COTS hardware tier's measured degradation envelope.
type Calibration struct {
	// Name labels the tier in reports and CLI flags.
	Name string
	// Throttle is the temperature→service-rate curve, knots ascending
	// in temperature, multipliers in (0, 1].
	Throttle []ThrottlePoint
	// EclipsePowerFrac is the fraction of the worker complement the
	// eclipse power budget sustains (battery + PMAD limits), in (0, 1].
	EclipsePowerFrac float64
	// SEFITempCoeffPerC is the fractional SEFI-rate increase per °C
	// above SEFIRefTempC (hot silicon upsets more often).
	SEFITempCoeffPerC float64
	// SEFIRefTempC is the temperature at which the scenario's base SEFI
	// rate was measured.
	SEFIRefTempC float64
}

// XingCOTS is the calibration anchored on the Xing et al. in-orbit COTS
// measurements: full rate through the qualification envelope (≤45 °C),
// progressive throttling to 40% at 85 °C, half the worker complement on
// the eclipse budget, and a 2%/°C SEFI-rate rise above 25 °C.
var XingCOTS = Calibration{
	Name: "xing-cots",
	Throttle: []ThrottlePoint{
		{TempC: 25, RateMult: 1.0},
		{TempC: 45, RateMult: 1.0},
		{TempC: 60, RateMult: 0.85},
		{TempC: 75, RateMult: 0.60},
		{TempC: 85, RateMult: 0.40},
	},
	EclipsePowerFrac:  0.50,
	SEFITempCoeffPerC: 0.02,
	SEFIRefTempC:      25,
}

// IntegratedPanel is the milder envelope of an integrated
// solar-compute-radiator panel (Gaalema et al., PAPERS.md): the larger
// rejection area keeps the plate cooler, so throttling starts later and
// the eclipse budget sustains more of the complement.
var IntegratedPanel = Calibration{
	Name: "integrated-panel",
	Throttle: []ThrottlePoint{
		{TempC: 25, RateMult: 1.0},
		{TempC: 55, RateMult: 1.0},
		{TempC: 70, RateMult: 0.90},
		{TempC: 85, RateMult: 0.75},
	},
	EclipsePowerFrac:  0.70,
	SEFITempCoeffPerC: 0.015,
	SEFIRefTempC:      25,
}

// Calibrations lists the built-in tiers by name for CLI lookup.
func Calibrations() []Calibration { return []Calibration{XingCOTS, IntegratedPanel} }

// CalibrationByName resolves a built-in calibration.
func CalibrationByName(name string) (Calibration, error) {
	for _, c := range Calibrations() {
		if c.Name == name {
			return c, nil
		}
	}
	return Calibration{}, fmt.Errorf("degrade: unknown calibration %q", name)
}

// Validate reports calibration errors.
func (c Calibration) Validate() error {
	if len(c.Throttle) == 0 {
		return errors.New("degrade: calibration needs at least one throttle point")
	}
	for i, p := range c.Throttle {
		if p.RateMult <= 0 || p.RateMult > 1 || math.IsNaN(p.RateMult) {
			return fmt.Errorf("degrade: throttle multiplier %v at %v °C out of (0,1]", p.RateMult, p.TempC)
		}
		if i > 0 && p.TempC <= c.Throttle[i-1].TempC {
			return errors.New("degrade: throttle knots must ascend in temperature")
		}
	}
	if c.EclipsePowerFrac <= 0 || c.EclipsePowerFrac > 1 {
		return fmt.Errorf("degrade: eclipse power fraction %v out of (0,1]", c.EclipsePowerFrac)
	}
	if c.SEFITempCoeffPerC < 0 {
		return errors.New("degrade: negative SEFI temperature coefficient")
	}
	return nil
}

// RateMultAt interpolates the throttle curve at the given temperature.
func (c Calibration) RateMultAt(tempC float64) float64 {
	ts := c.Throttle
	if tempC <= ts[0].TempC {
		return ts[0].RateMult
	}
	last := ts[len(ts)-1]
	if tempC >= last.TempC {
		return last.RateMult
	}
	for i := 1; i < len(ts); i++ {
		if tempC <= ts[i].TempC {
			frac := (tempC - ts[i-1].TempC) / (ts[i].TempC - ts[i-1].TempC)
			return ts[i-1].RateMult + frac*(ts[i].RateMult-ts[i-1].RateMult)
		}
	}
	return last.RateMult
}

// SEFIMultAt returns the SEFI-rate multiplier at the given temperature:
// 1 + coeff·max(0, T − Tref).
func (c Calibration) SEFIMultAt(tempC float64) float64 {
	if tempC <= c.SEFIRefTempC {
		return 1
	}
	return 1 + c.SEFITempCoeffPerC*(tempC-c.SEFIRefTempC)
}

// Profile couples a calibration to one orbit and thermal operating
// point. Severity scales every degradation linearly between "off"
// (0: all multipliers exactly 1) and the full calibrated envelope (1).
type Profile struct {
	// Orbit sets the period and, unless overridden, the eclipse
	// fraction of the modulation cycle.
	Orbit orbit.Orbit
	// Cal is the hardware tier's degradation envelope.
	Cal Calibration
	// Severity in [0, 1] scales throttle depth, eclipse power loss, and
	// SEFI elevation: mult = 1 − Severity·(1 − calibrated).
	Severity float64
	// EclipseFraction overrides the orbit-derived eclipse fraction when
	// non-negative (must stay < 1); negative derives it from Orbit.
	EclipseFraction float64
	// SunlitTempC and EclipseTempC are the steady-state cold-plate
	// temperatures of the two orbit phases, °C; the COTSProfile defaults
	// are the Xing hot/cold cases.
	SunlitTempC  float64
	EclipseTempC float64
}

// COTSProfile is the reference degraded-COTS operating point: the
// default EO orbit, the XingCOTS calibration, a 70 °C sunlit hot case
// and 20 °C eclipse cold case, at the given severity.
func COTSProfile(severity float64) Profile {
	return Profile{
		Orbit:           orbit.DefaultEO,
		Cal:             XingCOTS,
		Severity:        severity,
		EclipseFraction: -1,
		SunlitTempC:     70,
		EclipseTempC:    20,
	}
}

// Validate reports profile errors.
func (p Profile) Validate() error {
	if err := p.Orbit.Validate(); err != nil {
		return err
	}
	if err := p.Cal.Validate(); err != nil {
		return err
	}
	if p.Severity < 0 || p.Severity > 1 || math.IsNaN(p.Severity) {
		return fmt.Errorf("degrade: severity %v out of [0,1]", p.Severity)
	}
	if p.EclipseFraction >= 1 {
		return fmt.Errorf("degrade: eclipse fraction %v must stay below 1", p.EclipseFraction)
	}
	if math.IsNaN(p.SunlitTempC) || math.IsNaN(p.EclipseTempC) {
		return errors.New("degrade: temperature is NaN")
	}
	return nil
}

// eclipseFraction resolves the override-or-orbit eclipse fraction.
func (p Profile) eclipseFraction() float64 {
	if p.EclipseFraction >= 0 {
		return p.EclipseFraction
	}
	return p.Orbit.EclipseFraction()
}

// Phase is one piecewise-constant segment of the modulation schedule.
type Phase struct {
	// Start is the segment start in seconds from run start.
	Start float64
	// RateMult scales every worker's service rate in (0, 1].
	RateMult float64
	// PowerFrac is the fraction of each SµDC's worker complement the
	// power budget sustains, in (0, 1].
	PowerFrac float64
	// FaultMult scales the SEFI intensity (≥ 1 for hot phases).
	FaultMult float64
	// Eclipse marks the segment as an eclipse (battery-powered) phase.
	Eclipse bool
	// TempC is the segment's cold-plate temperature, for reporting.
	TempC float64
}

// Schedule is a compiled modulation timeline: phases sorted by Start
// (Phases[0].Start == 0) covering [0, Horizon). It is immutable after
// Build and safe to share across shard cells.
type Schedule struct {
	Phases  []Phase
	Horizon float64 // seconds
}

// maxOrbits bounds the phase count of a DES schedule; multi-decade
// horizons belong to the compressed-horizon survivability run.
const maxOrbits = 1 << 20

// Build compiles the profile over the horizon: each orbit contributes a
// sunlit phase (thermal hot case → throttling, elevated SEFI) followed
// by an eclipse phase (power-capped workers, cold case). Build draws no
// randomness — the schedule is a pure function of its inputs.
func Build(p Profile, horizon time.Duration) (*Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, errors.New("degrade: horizon must be positive")
	}
	h := horizon.Seconds()
	period := p.Orbit.Period()
	if h/period > maxOrbits {
		return nil, errors.New("degrade: horizon spans too many orbits for a DES schedule; use the compressed-horizon survivability run")
	}
	fe := p.eclipseFraction()
	sunlit := p.phase(false)
	eclipse := p.phase(true)
	sched := &Schedule{Horizon: h}
	for start := 0.0; start < h; start += period {
		sp := sunlit
		sp.Start = start
		sched.Phases = append(sched.Phases, sp)
		if fe > 0 {
			ep := eclipse
			ep.Start = start + (1-fe)*period
			if ep.Start < h {
				sched.Phases = append(sched.Phases, ep)
			}
		}
	}
	return sched, nil
}

// phase evaluates the profile's steady state for one orbit half. The
// severity scaling is affine in each multiplier so Severity 0 yields
// exactly 1 (bit-for-bit, no rounding residue).
func (p Profile) phase(eclipse bool) Phase {
	temp := p.SunlitTempC
	if eclipse {
		temp = p.EclipseTempC
	}
	pf := 1.0
	if eclipse {
		pf = 1 - p.Severity*(1-p.Cal.EclipsePowerFrac)
	}
	return Phase{
		RateMult:  1 - p.Severity*(1-p.Cal.RateMultAt(temp)),
		PowerFrac: pf,
		FaultMult: 1 + p.Severity*(p.Cal.SEFIMultAt(temp)-1),
		Eclipse:   eclipse,
		TempC:     temp,
	}
}

// Identity reports whether the schedule modulates nothing — every
// multiplier exactly 1. Callers drop identity schedules to nil so the
// degradation-disabled hot path is byte-identical to no schedule at
// all.
func (s *Schedule) Identity() bool {
	if s == nil {
		return true
	}
	for i := range s.Phases {
		ph := &s.Phases[i]
		if ph.RateMult != 1 || ph.PowerFrac != 1 || ph.FaultMult != 1 {
			return false
		}
	}
	return true
}

// End returns phase i's end time: the next phase's start, or the
// horizon for the last phase.
func (s *Schedule) End(i int) float64 {
	if i+1 < len(s.Phases) {
		return s.Phases[i+1].Start
	}
	return s.Horizon
}

// CapacityFactor is the schedule's time-averaged capacity multiplier —
// the mean of RateMult·PowerFrac over the horizon. It is the scalar a
// compressed-horizon fleet replay applies per satellite.
func (s *Schedule) CapacityFactor() float64 {
	if s == nil || len(s.Phases) == 0 || s.Horizon <= 0 {
		return 1
	}
	sum := 0.0
	for i := range s.Phases {
		ph := &s.Phases[i]
		end := math.Min(s.End(i), s.Horizon)
		if end > ph.Start {
			sum += (end - ph.Start) * ph.RateMult * ph.PowerFrac
		}
	}
	return sum / s.Horizon
}

// FaultEnvelope exports the schedule's SEFI-intensity timeline as a
// faults.RateEnvelope for BuildModulated. Returns nil when no phase
// modulates the fault rate, so the unmodulated byte-identical fault
// build path is taken.
func (s *Schedule) FaultEnvelope() *faults.RateEnvelope {
	if s == nil {
		return nil
	}
	flat := true
	for i := range s.Phases {
		if s.Phases[i].FaultMult != 1 {
			flat = false
			break
		}
	}
	if flat {
		return nil
	}
	env := &faults.RateEnvelope{
		Starts: make([]float64, len(s.Phases)),
		Mults:  make([]float64, len(s.Phases)),
	}
	for i := range s.Phases {
		env.Starts[i] = s.Phases[i].Start
		env.Mults[i] = s.Phases[i].FaultMult
	}
	return env
}
