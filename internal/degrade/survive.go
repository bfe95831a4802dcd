package degrade

// Compressed-horizon survivability: the modulation schedule replayed
// over a multi-year program window. A week of program time is far too
// coarse for per-orbit phases, so the schedule is compressed to its
// orbit-averaged CapacityFactor and applied per satellite on top of
// solar-array aging, while the fleet itself evolves under the
// lifecycle replenishment policy (scheduled retirement, early
// failures, lead-time launches). The replay follows the weekly-step
// semantics of lifecycle.Policy.Simulate and keeps its determinism
// discipline: one RNG stream per trial forked from the seed, so
// results are identical for any worker count.

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"sudc/internal/lifecycle"
	"sudc/internal/par"
	"sudc/internal/solar"
)

// SurvivalConfig describes one compressed-horizon program run.
type SurvivalConfig struct {
	// Policy is the fleet-maintenance strategy (target, spares,
	// lifetimes, replacement lead time, program horizon).
	Policy lifecycle.Policy
	// Profile is the per-satellite degradation operating point; its
	// orbit-averaged CapacityFactor scales each satellite's capacity.
	Profile Profile
	// Solar supplies the array aging rate: a satellite of age a serves
	// at CapacityFactor × (1 − annualDegradation)^a.
	Solar solar.Config
	// Trials is the Monte-Carlo trial count; Seed forks one RNG stream
	// per trial.
	Trials int
	Seed   int64
}

// DefaultSurvivalConfig is the reference program: the default
// maintenance policy and EPS, the COTS profile at the given severity,
// 200 trials.
func DefaultSurvivalConfig(severity float64) SurvivalConfig {
	return SurvivalConfig{
		Policy:  lifecycle.DefaultPolicy(),
		Profile: COTSProfile(severity),
		Solar:   solar.DefaultConfig(),
		Trials:  200,
		Seed:    1,
	}
}

// YearPoint is one program year's mean fleet state across trials.
type YearPoint struct {
	// Year is the 0-based program year.
	Year int
	// MeanOperational is the time-averaged operational satellite count.
	MeanOperational float64
	// Availability is the fraction of the year with ≥ Target
	// operational satellites (counting heads, not capacity).
	Availability float64
	// MeanCapacity is the time-averaged fleet capacity in units of
	// fully-rated satellites: Σ CapacityFactor × aging^age.
	MeanCapacity float64
}

// SurvivalResult summarizes the compressed-horizon program.
type SurvivalResult struct {
	// CapacityFactor is the orbit-averaged per-satellite capacity
	// multiplier the schedule compressed to.
	CapacityFactor float64
	// UnitsBuilt is the mean satellites manufactured over the horizon.
	UnitsBuilt float64
	// Availability is the head-count availability over the whole
	// program (the lifecycle.SimResult quantity).
	Availability float64
	// CapacityAvailability is the fraction of program time with
	// degradation-adjusted fleet capacity ≥ Target — the metric that
	// breaks first when throttling eats the spare margin.
	CapacityAvailability float64
	// MeanCapacity is the program-averaged fleet capacity.
	MeanCapacity float64
	// Years is the per-year trajectory.
	Years []YearPoint
}

// Validate reports configuration errors.
func (c SurvivalConfig) Validate() error {
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if err := c.Solar.Validate(); err != nil {
		return err
	}
	if c.Trials < 1 {
		return errors.New("degrade: trials must be ≥ 1")
	}
	return nil
}

// trialAccum accumulates one trial's weekly integrals.
type trialAccum struct {
	built     float64
	availWks  float64
	capWks    float64
	opSum     float64
	capSum    float64
	steps     float64
	yearOp    []float64
	yearAvail []float64
	yearCap   []float64
	yearSteps []float64
}

// Survive runs the compressed-horizon program. Deterministic for any
// worker count: trial tr draws only from the stream seeded with
// par.ForkSeed(Seed, tr), on a pooled generator.
func Survive(cfg SurvivalConfig) (SurvivalResult, error) {
	if err := cfg.Validate(); err != nil {
		return SurvivalResult{}, err
	}
	// Compress the schedule: one orbital period captures the repeating
	// sunlit/eclipse cycle exactly.
	period := time.Duration(cfg.Profile.Orbit.Period() * float64(time.Second))
	sched, err := Build(cfg.Profile, period)
	if err != nil {
		return SurvivalResult{}, err
	}
	capFactor := sched.CapacityFactor()
	years := int(math.Ceil(float64(cfg.Policy.Horizon)))
	tab := cfg.tabulateAging(capFactor)

	parts := make([]trialAccum, cfg.Trials)
	par.ForN(cfg.Trials, func(tr int) {
		rng := par.GetRand(par.ForkSeed(cfg.Seed, tr))
		parts[tr] = cfg.trial(rng, tab, years)
		par.PutRand(rng)
	})
	return mergeTrials(parts, capFactor, years), nil
}

// mergeTrials averages the trials' integrals into the program result.
func mergeTrials(parts []trialAccum, capFactor float64, years int) SurvivalResult {
	out := SurvivalResult{CapacityFactor: capFactor}
	out.Years = make([]YearPoint, years)
	n := float64(len(parts))
	for _, p := range parts {
		out.UnitsBuilt += p.built / n
		out.Availability += p.availWks / p.steps / n
		out.CapacityAvailability += p.capWks / p.steps / n
		out.MeanCapacity += p.capSum / p.steps / n
		for y := 0; y < years; y++ {
			if p.yearSteps[y] == 0 {
				continue
			}
			out.Years[y].MeanOperational += p.yearOp[y] / p.yearSteps[y] / n
			out.Years[y].Availability += p.yearAvail[y] / p.yearSteps[y] / n
			out.Years[y].MeanCapacity += p.yearCap[y] / p.yearSteps[y] / n
		}
	}
	for y := range out.Years {
		out.Years[y].Year = y
	}
	return out
}

// weekDt is the program's weekly time step in years.
const weekDt = 1.0 / 52

// agingTable is indexed by the weeks a satellite has flown. Every
// satellite enters the fleet at age 0 and ages by weekDt each step, so
// a satellite flown k weeks has exactly age ages[k], the k-fold float
// sum of weekDt, and capacity caps[k] = capFactor × aging^ages[k].
type agingTable struct {
	ages, caps []float64
}

// tabulateAging builds the aging table up to the first age at the
// design lifetime (a satellite retires there) or the last program
// week, whichever comes first.
func (cfg SurvivalConfig) tabulateAging(capFactor float64) agingTable {
	aging := 1 - cfg.Solar.Cell.AnnualDegradation
	life := float64(cfg.Policy.DesignLifetime)
	weeks := cfg.Policy.ProgramWeeks()
	var tab agingTable
	for k, age := 0, 0.0; k <= weeks; k, age = k+1, age+weekDt {
		tab.ages = append(tab.ages, age)
		tab.caps = append(tab.caps, capFactor*math.Pow(aging, age))
		if age >= life {
			break
		}
	}
	return tab
}

// trial replays one program trajectory with the weekly-step fleet
// semantics of lifecycle.Policy.Simulate, adding the per-satellite
// capacity integral. Satellites are tracked by weeks flown, and their
// ages and capacities read from tab.
func (cfg SurvivalConfig) trial(rng *rand.Rand, tab agingTable, years int) trialAccum {
	p := cfg.Policy
	size := p.Target + p.Spares
	target := float64(p.Target)

	a := trialAccum{
		yearOp:    make([]float64, years),
		yearAvail: make([]float64, years),
		yearCap:   make([]float64, years),
		yearSteps: make([]float64, years),
	}
	fleet := make([]int, size) // weeks flown by each flying satellite
	a.built = float64(size)
	var pending []float64
	steps := p.ProgramWeeks()
	for w := 0; w < steps; w++ {
		t := float64(w) * weekDt
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
		// Age, retire at design lifetime, fail early at 1/MTTF.
		alive := fleet[:0]
		for _, k := range fleet {
			k++
			if tab.ages[k] >= float64(p.DesignLifetime) {
				continue
			}
			if p.EarlyFailureMTTF > 0 && rng.Float64() < weekDt/float64(p.EarlyFailureMTTF) {
				continue
			}
			alive = append(alive, k)
		}
		fleet = alive
		// Order replacements, counting only satellites still flying
		// when an ordered unit arrives.
		surviving := 0
		for _, k := range fleet {
			if tab.ages[k]+float64(p.ReplacementLeadTime) < float64(p.DesignLifetime) {
				surviving++
			}
		}
		for i := 0; i < size-surviving-len(pending); i++ {
			pending = append(pending, t+float64(p.ReplacementLeadTime))
			a.built++
		}
		// Integrate head-count and degradation-adjusted capacity.
		capSum := 0.0
		for _, k := range fleet {
			capSum += tab.caps[k]
		}
		y := w / 52
		if y >= years {
			y = years - 1
		}
		a.steps++
		a.yearSteps[y]++
		a.opSum += float64(len(fleet))
		a.yearOp[y] += float64(len(fleet))
		a.capSum += capSum
		a.yearCap[y] += capSum
		if len(fleet) >= p.Target {
			a.availWks++
			a.yearAvail[y]++
		}
		if capSum >= target {
			a.capWks++
		}
	}
	return a
}
