// Package lifecycle extends the paper's availability analysis (§VII) from
// servers within one SµDC to the fleet itself: satellites retire after
// their design lifetime (or fail early), and maintaining a capacity
// target means launching replacements whose unit cost falls along the
// Wright's-law experience curve as cumulative production grows.
//
// It answers the operator question the paper's Figures 22–25 set up: what
// does it cost to *keep* N SµDCs on orbit for a program horizon, and how
// much capacity margin does a given sparing policy buy?
package lifecycle

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sudc/internal/par"
	"sudc/internal/units"
	"sudc/internal/wright"
)

// Policy describes a constellation-maintenance strategy.
type Policy struct {
	// Target is the number of operational SµDCs the program needs.
	Target int
	// Spares is how many extra satellites fly at any time (replacements
	// launch to restore Target+Spares whenever attrition drops below it).
	Spares int
	// DesignLifetime is each satellite's planned retirement age.
	DesignLifetime units.Years
	// EarlyFailureMTTF is the mean time to premature satellite loss
	// (random failures, Exp-distributed); zero disables early failures.
	EarlyFailureMTTF units.Years
	// Horizon is the program duration.
	Horizon units.Years
	// ReplacementLeadTime is the build+launch delay for a replacement.
	ReplacementLeadTime units.Years
}

// DefaultPolicy maintains 4 operational SµDCs with one spare for 15 years
// with the paper's 5-year design lifetime.
func DefaultPolicy() Policy {
	return Policy{
		Target:              4,
		Spares:              1,
		DesignLifetime:      5,
		EarlyFailureMTTF:    25,
		Horizon:             15,
		ReplacementLeadTime: 0.5,
	}
}

// Validate reports policy errors.
func (p Policy) Validate() error {
	switch {
	case p.Target < 1:
		return errors.New("lifecycle: target must be ≥ 1")
	case p.Spares < 0:
		return errors.New("lifecycle: negative spares")
	case p.DesignLifetime <= 0:
		return errors.New("lifecycle: design lifetime must be positive")
	case p.EarlyFailureMTTF < 0:
		return errors.New("lifecycle: negative failure MTTF")
	case p.Horizon <= 0:
		return errors.New("lifecycle: horizon must be positive")
	case p.ReplacementLeadTime < 0:
		return errors.New("lifecycle: negative lead time")
	}
	return nil
}

// fleetSize is the constellation size the policy maintains.
func (p Policy) fleetSize() int { return p.Target + p.Spares }

// ProgramWeeks is the number of weekly steps over the program horizon:
// the horizon in weeks, rounded, and at least one. Simulations loop
// over this integer count: a loop that adds 1/52 to a float until it
// reaches the horizon accumulates rounding error and runs a step long
// or short over a multi-year horizon (105 steps over 2 years).
func (p Policy) ProgramWeeks() int {
	return max(1, int(math.Round(float64(p.Horizon)*52)))
}

// ExpectedUnits returns the expected number of satellites built over the
// horizon: the initial fleet plus scheduled replacements plus expected
// early-failure replacements (each flying satellite fails at rate
// 1/MTTF while the program runs).
func (p Policy) ExpectedUnits() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	n := float64(p.fleetSize())
	// Scheduled replacement waves: a satellite launched at t retires at
	// t + DesignLifetime; the last wave launches before Horizon.
	waves := math.Ceil(float64(p.Horizon)/float64(p.DesignLifetime)) - 1
	if waves < 0 {
		waves = 0
	}
	units := n * (1 + waves)
	if p.EarlyFailureMTTF > 0 {
		units += n * float64(p.Horizon) / float64(p.EarlyFailureMTTF)
	}
	return units, nil
}

// ProgramCost prices the maintenance program: one NRE plus the
// learning-discounted cost of the expected unit count.
func (p Policy) ProgramCost(nre, re units.Dollars, curve wright.Curve) (units.Dollars, error) {
	n, err := p.ExpectedUnits()
	if err != nil {
		return 0, err
	}
	cum, err := curve.CumulativeCost(re, int(math.Ceil(n)))
	if err != nil {
		return 0, err
	}
	return nre + cum, nil
}

// SimResult summarizes a Monte-Carlo run of the maintenance program.
type SimResult struct {
	// UnitsBuilt is the mean satellites manufactured over the horizon.
	UnitsBuilt float64
	// Availability is the fraction of program time with ≥ Target
	// operational satellites.
	Availability float64
	// MeanOperational is the time-averaged operational satellite count.
	MeanOperational float64
}

// simulateTrial runs one program trial against a caller-owned RNG and
// returns (satellites built, availability fraction, mean operational).
func (p Policy) simulateTrial(rng *rand.Rand) (built int, avail, meanOp float64) {
	const dt = 1.0 / 52 // weekly steps

	// ages of flying satellites; pending holds replacement arrival times.
	// Both are filtered in place, so a trial allocates only their growth.
	fleet := make([]float64, p.fleetSize())
	built = len(fleet)
	var pending []float64
	steps := p.ProgramWeeks()
	availSteps := 0
	opSum := 0.0
	t := 0.0
	for w := 0; w < steps; w, t = w+1, t+dt {
		// Deliver arrivals.
		keep := pending[:0]
		for _, at := range pending {
			if at <= t {
				fleet = append(fleet, 0)
			} else {
				keep = append(keep, at)
			}
		}
		pending = keep
		// Age, retire, and randomly fail.
		alive := fleet[:0]
		for _, age := range fleet {
			age += dt
			if age >= float64(p.DesignLifetime) {
				continue // scheduled retirement
			}
			if p.EarlyFailureMTTF > 0 && rng.Float64() < dt/float64(p.EarlyFailureMTTF) {
				continue // early loss
			}
			alive = append(alive, age)
		}
		fleet = alive
		// Order replacements up to the maintained size. Scheduled
		// retirements are known in advance, so count only satellites
		// that will still be flying when an ordered unit arrives.
		surviving := 0
		for _, age := range fleet {
			if age+float64(p.ReplacementLeadTime) < float64(p.DesignLifetime) {
				surviving++
			}
		}
		deficit := p.fleetSize() - surviving - len(pending)
		for i := 0; i < deficit; i++ {
			pending = append(pending, t+float64(p.ReplacementLeadTime))
			built++
		}
		if len(fleet) >= p.Target {
			availSteps++
		}
		opSum += float64(len(fleet))
	}
	return built, float64(availSteps) / float64(steps), opSum / float64(steps)
}

// trialResult is one trial's contribution to the SimResult means.
type trialResult struct {
	units, avail, op float64
}

func (p Policy) aggregate(parts []trialResult) SimResult {
	var totalUnits, totalAvail, totalOp float64
	for _, r := range parts {
		totalUnits += r.units
		totalAvail += r.avail
		totalOp += r.op
	}
	n := float64(len(parts))
	return SimResult{
		UnitsBuilt:      totalUnits / n,
		Availability:    totalAvail / n,
		MeanOperational: totalOp / n,
	}
}

// Simulate runs trials of the program: satellites retire at their design
// lifetime or fail early (exponential), replacements arrive after the
// lead time, and the fleet is topped back up to Target+Spares. Each
// trial draws from its own RNG stream forked from the seed, so trials
// run in parallel and the result is identical for any worker count.
func (p Policy) Simulate(trials int, seed int64) (SimResult, error) {
	if err := p.Validate(); err != nil {
		return SimResult{}, err
	}
	if trials < 1 {
		return SimResult{}, errors.New("lifecycle: trials must be ≥ 1")
	}
	parts := make([]trialResult, trials)
	par.ForN(trials, func(tr int) {
		rng := par.GetRand(par.ForkSeed(seed, tr))
		b, a, o := p.simulateTrial(rng)
		par.PutRand(rng)
		parts[tr] = trialResult{units: float64(b), avail: a, op: o}
	})
	return p.aggregate(parts), nil
}

// String summarizes the policy.
func (p Policy) String() string {
	return fmt.Sprintf("maintain %d+%d SµDCs for %v (%v design life)",
		p.Target, p.Spares, p.Horizon, p.DesignLifetime)
}
