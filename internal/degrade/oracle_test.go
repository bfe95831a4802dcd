package degrade

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sudc/internal/par"
)

// trialOracle replays one program trajectory the direct way: each
// satellite's age is a float advanced by 1/52 every week and its
// capacity is capFactor × math.Pow(aging, age), evaluated per satellite
// per week. SurvivalConfig.trial, which reads both from an aging table,
// must match it bit for bit. The oracle's trials draw from math/rand's
// own source, seeded with par.ForkSeed, so the check covers par's port
// of that source too.
func (cfg SurvivalConfig) trialOracle(rng *rand.Rand, capFactor float64, years int) trialAccum {
	p := cfg.Policy
	horizon := float64(p.Horizon)
	const dt = 1.0 / 52
	aging := 1 - cfg.Solar.Cell.AnnualDegradation
	size := p.Target + p.Spares
	target := float64(p.Target)

	a := trialAccum{
		yearOp:    make([]float64, years),
		yearAvail: make([]float64, years),
		yearCap:   make([]float64, years),
		yearSteps: make([]float64, years),
	}
	fleet := make([]float64, size)
	a.built = float64(size)
	var pending []float64
	steps := int(math.Round(horizon * 52))
	for w := 0; w < steps; w++ {
		t := float64(w) * dt
		keep := pending[:0]
		for _, at := range pending {
			if at <= t {
				fleet = append(fleet, 0)
			} else {
				keep = append(keep, at)
			}
		}
		pending = keep
		alive := fleet[:0]
		for _, age := range fleet {
			age += dt
			if age >= float64(p.DesignLifetime) {
				continue
			}
			if p.EarlyFailureMTTF > 0 && rng.Float64() < dt/float64(p.EarlyFailureMTTF) {
				continue
			}
			alive = append(alive, age)
		}
		fleet = alive
		surviving := 0
		for _, age := range fleet {
			if age+float64(p.ReplacementLeadTime) < float64(p.DesignLifetime) {
				surviving++
			}
		}
		for i := 0; i < size-surviving-len(pending); i++ {
			pending = append(pending, t+float64(p.ReplacementLeadTime))
			a.built++
		}
		capSum := 0.0
		for _, age := range fleet {
			capSum += capFactor * math.Pow(aging, age)
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

func TestSurviveMatchesPowOracle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		severity float64
		early    bool
		edit     func(*SurvivalConfig)
	}{
		{"sev0", 0, true, nil},
		{"sev0-no-early", 0, false, nil},
		{"sev0.5", 0.5, true, nil},
		{"sev0.5-no-early", 0.5, false, nil},
		{"sev1", 1, true, nil},
		{"sev1-no-early", 1, false, nil},
		{"no-aging", 1, true, func(c *SurvivalConfig) { c.Solar.Cell.AnnualDegradation = 0 }},
		// A horizon far past the design lifetime, with a lifetime that is
		// no whole number of weeks: the table stops at retirement.
		{"long-horizon", 0.7, true, func(c *SurvivalConfig) {
			c.Policy.Horizon = 31.3
			c.Policy.DesignLifetime = 3.71
			c.Policy.ReplacementLeadTime = 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultSurvivalConfig(tc.severity)
			cfg.Trials = 12
			if !tc.early {
				cfg.Policy.EarlyFailureMTTF = 0
			}
			if tc.edit != nil {
				tc.edit(&cfg)
			}
			got, err := Survive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			years := int(math.Ceil(float64(cfg.Policy.Horizon)))
			parts := make([]trialAccum, cfg.Trials)
			for tr := range parts {
				parts[tr] = cfg.trialOracle(rand.New(rand.NewSource(par.ForkSeed(cfg.Seed, tr))), got.CapacityFactor, years)
			}
			if want := mergeTrials(parts, got.CapacityFactor, years); !reflect.DeepEqual(got, want) {
				t.Errorf("Survive differs from the math.Pow oracle:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
