package lifecycle

import (
	"math"
	"strings"
	"testing"

	"sudc/internal/par"
	"sudc/internal/par/partest"
	"sudc/internal/units"
	"sudc/internal/wright"
)

func TestValidate(t *testing.T) {
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Policy)
	}{
		{"no target", func(p *Policy) { p.Target = 0 }},
		{"negative spares", func(p *Policy) { p.Spares = -1 }},
		{"no lifetime", func(p *Policy) { p.DesignLifetime = 0 }},
		{"negative mttf", func(p *Policy) { p.EarlyFailureMTTF = -1 }},
		{"no horizon", func(p *Policy) { p.Horizon = 0 }},
		{"negative lead", func(p *Policy) { p.ReplacementLeadTime = -1 }},
	}
	for _, tt := range tests {
		p := DefaultPolicy()
		tt.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

func TestExpectedUnits(t *testing.T) {
	// 5 satellites, 15-yr horizon, 5-yr lifetime: 3 generations = 15
	// scheduled units, plus early failures 5 × 15/25 = 3 → 18.
	p := DefaultPolicy()
	got, err := p.ExpectedUnits()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-18) > 1e-9 {
		t.Errorf("expected units = %v, want 18", got)
	}
	// No early failures: exactly the scheduled waves.
	p.EarlyFailureMTTF = 0
	got, _ = p.ExpectedUnits()
	if got != 15 {
		t.Errorf("scheduled-only units = %v, want 15", got)
	}
	// Horizon shorter than a lifetime: just the initial fleet.
	p.Horizon = 3
	got, _ = p.ExpectedUnits()
	if got != 5 {
		t.Errorf("single-generation units = %v, want 5", got)
	}
}

func TestProgramCostLearningMatters(t *testing.T) {
	p := DefaultPolicy()
	nre, re := units.MUSD(40), units.MUSD(52)
	cheap, err := p.ProgramCost(nre, re, wright.Curve{ProgressRatio: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := p.ProgramCost(nre, re, wright.Curve{ProgressRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cheap >= flat {
		t.Error("learning must reduce program cost")
	}
	// Flat learning = NRE + 18 × RE.
	want := float64(nre) + 18*float64(re)
	if !units.ApproxEqual(float64(flat), want, 1e-9) {
		t.Errorf("flat program cost = %v, want %v", flat, want)
	}
	bad := p
	bad.Target = 0
	if _, err := bad.ProgramCost(nre, re, wright.DefaultAerospace); err == nil {
		t.Error("invalid policy must error")
	}
}

func TestSimulateReplacementKeepsAvailability(t *testing.T) {
	p := DefaultPolicy()
	r, err := p.Simulate(30, 7)
	if err != nil {
		t.Fatal(err)
	}
	// With a spare and half-year lead time, the target is nearly always met.
	if r.Availability < 0.95 {
		t.Errorf("availability = %.3f, want ≥0.95 with a spare", r.Availability)
	}
	if r.MeanOperational < float64(p.Target) {
		t.Errorf("mean operational = %.2f, want ≥ target %d", r.MeanOperational, p.Target)
	}
	// Simulated build count is near the analytic expectation.
	want, _ := p.ExpectedUnits()
	if math.Abs(r.UnitsBuilt-want)/want > 0.25 {
		t.Errorf("units built = %.1f, analytic expectation %.1f", r.UnitsBuilt, want)
	}
}

func TestSparesImproveAvailability(t *testing.T) {
	lean := DefaultPolicy()
	lean.Spares = 0
	lean.ReplacementLeadTime = 1 // slow resupply stresses the fleet
	rich := lean
	rich.Spares = 2
	rLean, err := lean.Simulate(30, 11)
	if err != nil {
		t.Fatal(err)
	}
	rRich, err := rich.Simulate(30, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rRich.Availability <= rLean.Availability {
		t.Errorf("spares must improve availability: %.3f vs %.3f",
			rRich.Availability, rLean.Availability)
	}
	if rRich.UnitsBuilt <= rLean.UnitsBuilt {
		t.Error("spares cost more units")
	}
}

func TestSimulateErrors(t *testing.T) {
	p := DefaultPolicy()
	if _, err := p.Simulate(0, 1); err == nil {
		t.Error("zero trials must error")
	}
	p.Target = 0
	if _, err := p.Simulate(10, 1); err == nil {
		t.Error("invalid policy must error")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	p := DefaultPolicy()
	a, err := p.Simulate(5, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := p.Simulate(5, 42)
	if a != b {
		t.Error("same seed must reproduce results")
	}
}

func TestPolicyString(t *testing.T) {
	s := DefaultPolicy().String()
	if !strings.Contains(s, "4+1") || !strings.Contains(s, "15 yr") {
		t.Errorf("String() = %q", s)
	}
}

func TestSimulateInvariantUnderWorkerCount(t *testing.T) {
	p := DefaultPolicy()
	ref, err := p.Simulate(16, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		prev := par.SetDefaultWorkers(w)
		r, err := p.Simulate(16, 42)
		par.SetDefaultWorkers(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if r != ref {
			t.Errorf("workers=%d: %+v differs from %+v", w, r, ref)
		}
	}
}

func TestExpectedUnitsRejectsInvalidPolicy(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Policy)
	}{
		{"no target", func(p *Policy) { p.Target = 0 }},
		{"negative spares", func(p *Policy) { p.Spares = -1 }},
		{"no lifetime", func(p *Policy) { p.DesignLifetime = 0 }},
		{"negative mttf", func(p *Policy) { p.EarlyFailureMTTF = -1 }},
		{"no horizon", func(p *Policy) { p.Horizon = 0 }},
		{"negative lead", func(p *Policy) { p.ReplacementLeadTime = -1 }},
	}
	for _, tt := range tests {
		p := DefaultPolicy()
		tt.mutate(&p)
		if _, err := p.ExpectedUnits(); err == nil {
			t.Errorf("%s: ExpectedUnits must reject the policy", tt.name)
		}
		if _, err := p.ProgramCost(units.Dollars(1e8), units.Dollars(1e7), wright.DefaultAerospace); err == nil {
			t.Errorf("%s: ProgramCost must reject the policy", tt.name)
		}
	}
}

func TestProgramCostRejectsBadCurve(t *testing.T) {
	p := DefaultPolicy()
	bad := wright.Curve{ProgressRatio: 1.5}
	if _, err := p.ProgramCost(units.Dollars(1e8), units.Dollars(1e7), bad); err == nil {
		t.Error("invalid learning curve must error")
	}
}

func TestSimulateWeekCount(t *testing.T) {
	// Regression: the trial loop used to run while a float time, advanced
	// by 1/52 a week, stayed below the horizon, and accumulated rounding
	// made it run 105 steps over 2 years. One satellite that retires
	// after a year and is never replaced flies a fixed number of weeks,
	// so its availability times the horizon in weeks must be that whole
	// number for every horizon.
	p := Policy{Target: 1, DesignLifetime: 1, ReplacementLeadTime: 100}
	flown := -1.0
	for h := 2; h <= 8; h++ {
		p.Horizon = units.Years(h)
		if got := p.ProgramWeeks(); got != 52*h {
			t.Errorf("%d years: ProgramWeeks = %d, want %d", h, got, 52*h)
		}
		r, err := p.Simulate(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		weeks := r.Availability * float64(52*h)
		if math.Abs(weeks-math.Round(weeks)) > 1e-9 {
			t.Errorf("%d years: availability %v is no whole number of %d weeks", h, r.Availability, 52*h)
			continue
		}
		if flown < 0 {
			flown = weeks
		} else if weeks != flown {
			t.Errorf("%d years: satellite flew %v weeks, %v at 2 years", h, weeks, flown)
		}
	}
}

func TestSimulateShortHorizon(t *testing.T) {
	// A horizon under half a week still runs one step rather than
	// dividing by zero steps.
	p := DefaultPolicy()
	p.Horizon = 0.005
	if got := p.ProgramWeeks(); got != 1 {
		t.Errorf("ProgramWeeks = %d, want 1", got)
	}
	r, err := p.Simulate(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Availability != 1 || r.MeanOperational != float64(p.Target+p.Spares) {
		t.Errorf("one-week program = %+v, want the full fleet available", r)
	}
}

func TestSimulateAllocsPerTrial(t *testing.T) {
	// Each trial reseeds a pooled generator and filters its fleet in
	// place, so an extra trial costs its two small slices, not a fresh
	// ~4.9 KB source or a slice per simulated week.
	if partest.RaceEnabled {
		t.Skip("the race detector drops pooled generators")
	}
	p := DefaultPolicy()
	per := partest.BytesPerExtraItem(t, 20, 220, func(n int) {
		if _, err := p.Simulate(n, 1); err != nil {
			t.Fatal(err)
		}
	})
	if per >= 1024 {
		t.Errorf("Simulate allocates %.0f B per extra trial, want < 1 KB", per)
	}
}
