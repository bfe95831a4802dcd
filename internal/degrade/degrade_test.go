package degrade

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"sudc/internal/orbit"
	"sudc/internal/par"
	"sudc/internal/par/partest"
)

func TestCalibrationsValid(t *testing.T) {
	for _, c := range Calibrations() {
		if err := c.Validate(); err != nil {
			t.Errorf("built-in calibration %q invalid: %v", c.Name, err)
		}
		if _, err := CalibrationByName(c.Name); err != nil {
			t.Errorf("CalibrationByName(%q): %v", c.Name, err)
		}
	}
	if _, err := CalibrationByName("no-such-tier"); err == nil {
		t.Error("unknown calibration must error")
	}
}

func TestRateMultInterpolation(t *testing.T) {
	c := XingCOTS
	tests := []struct {
		tempC, want float64
	}{
		{-40, 1.0},    // clamp below first knot
		{25, 1.0},     // first knot
		{45, 1.0},     // qualification envelope edge
		{52.5, 0.925}, // midpoint 45→60
		{60, 0.85},
		{85, 0.40},
		{120, 0.40}, // clamp above last knot
	}
	for _, tt := range tests {
		if got := c.RateMultAt(tt.tempC); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("RateMultAt(%v) = %v, want %v", tt.tempC, got, tt.want)
		}
	}
	if got := c.SEFIMultAt(25); got != 1 {
		t.Errorf("SEFIMultAt at reference = %v, want 1", got)
	}
	if got, want := c.SEFIMultAt(75), 1+0.02*50; math.Abs(got-want) > 1e-12 {
		t.Errorf("SEFIMultAt(75) = %v, want %v", got, want)
	}
}

func TestProfileValidate(t *testing.T) {
	if err := COTSProfile(0.5).Validate(); err != nil {
		t.Fatalf("reference profile invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"severity below 0", func(p *Profile) { p.Severity = -0.1 }},
		{"severity above 1", func(p *Profile) { p.Severity = 1.1 }},
		{"eclipse fraction 1", func(p *Profile) { p.EclipseFraction = 1 }},
		{"NaN temperature", func(p *Profile) { p.SunlitTempC = math.NaN() }},
		{"bad orbit", func(p *Profile) { p.Orbit = orbit.Orbit{AltitudeM: 1} }},
		{"empty calibration", func(p *Profile) { p.Cal = Calibration{} }},
	}
	for _, tt := range tests {
		p := COTSProfile(0.5)
		tt.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

func TestBuildPhaseStructure(t *testing.T) {
	p := COTSProfile(1)
	horizon := 2 * time.Hour
	s, err := Build(p, horizon)
	if err != nil {
		t.Fatal(err)
	}
	period := p.Orbit.Period()
	orbits := int(math.Ceil(horizon.Seconds() / period))
	if len(s.Phases) < 2*orbits-1 || len(s.Phases) > 2*orbits {
		t.Fatalf("got %d phases over %d orbits, want ~%d", len(s.Phases), orbits, 2*orbits)
	}
	if s.Phases[0].Start != 0 {
		t.Errorf("first phase starts at %v, want 0", s.Phases[0].Start)
	}
	fe := p.Orbit.EclipseFraction()
	for i := range s.Phases {
		ph := &s.Phases[i]
		if i > 0 && ph.Start <= s.Phases[i-1].Start {
			t.Fatalf("phase %d start %v not after predecessor", i, ph.Start)
		}
		if ph.Eclipse != (i%2 == 1) {
			t.Errorf("phase %d eclipse=%v, want alternating starting sunlit", i, ph.Eclipse)
		}
		if ph.Eclipse {
			wantLen := fe * period
			gotLen := s.End(i) - ph.Start
			if i+1 < len(s.Phases) && math.Abs(gotLen-wantLen) > 1e-6 {
				t.Errorf("eclipse phase %d length %v, want %v", i, gotLen, wantLen)
			}
			if ph.PowerFrac != XingCOTS.EclipsePowerFrac {
				t.Errorf("eclipse PowerFrac %v, want %v at severity 1", ph.PowerFrac, XingCOTS.EclipsePowerFrac)
			}
		} else if ph.PowerFrac != 1 {
			t.Errorf("sunlit phase %d PowerFrac %v, want 1", i, ph.PowerFrac)
		}
	}
	// Deterministic: same inputs, same schedule.
	again, err := Build(p, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Error("Build must be deterministic")
	}
}

func TestZeroSeverityIsExactIdentity(t *testing.T) {
	s, err := Build(COTSProfile(0), 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Identity() {
		t.Fatal("severity-0 schedule must be the exact identity")
	}
	for i := range s.Phases {
		ph := &s.Phases[i]
		if ph.RateMult != 1 || ph.PowerFrac != 1 || ph.FaultMult != 1 {
			t.Fatalf("phase %d multipliers (%v, %v, %v) not exactly 1", i, ph.RateMult, ph.PowerFrac, ph.FaultMult)
		}
	}
	if s.FaultEnvelope() != nil {
		t.Error("identity schedule must export a nil fault envelope")
	}
	var nilSched *Schedule
	if !nilSched.Identity() {
		t.Error("nil schedule must be identity")
	}
}

func TestSeverityScalesMonotonically(t *testing.T) {
	prevCap := math.Inf(1)
	for _, sev := range []float64{0, 0.25, 0.5, 0.75, 1} {
		s, err := Build(COTSProfile(sev), 2*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		cf := s.CapacityFactor()
		if cf > prevCap+1e-12 {
			t.Errorf("capacity factor rose from %v to %v at severity %v", prevCap, cf, sev)
		}
		prevCap = cf
	}
	full, _ := Build(COTSProfile(1), 2*time.Hour)
	if cf := full.CapacityFactor(); cf >= 1 || cf <= 0 {
		t.Errorf("full-severity capacity factor %v out of (0,1)", cf)
	}
}

func TestEnd(t *testing.T) {
	s, err := Build(COTSProfile(1), 4*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(s.Phases); i++ {
		if got := s.End(i); got != s.Phases[i+1].Start {
			t.Errorf("End(%d) = %v, want the next phase's start %v", i, got, s.Phases[i+1].Start)
		}
	}
	if got := s.End(len(s.Phases) - 1); got != s.Horizon {
		t.Errorf("last End = %v, want horizon %v", got, s.Horizon)
	}
}

func TestFaultEnvelopeExport(t *testing.T) {
	s, err := Build(COTSProfile(1), 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env := s.FaultEnvelope()
	if env == nil {
		t.Fatal("hot full-severity schedule must export an envelope")
	}
	if err := env.Validate(); err != nil {
		t.Fatalf("exported envelope invalid: %v", err)
	}
	if len(env.Starts) != len(s.Phases) {
		t.Errorf("envelope has %d segments, schedule %d phases", len(env.Starts), len(s.Phases))
	}
	// Sunlit phases are hot → FaultMult > 1; the 20 °C eclipse is below
	// the 25 °C reference → exactly 1.
	for i := range s.Phases {
		if s.Phases[i].Eclipse && env.Mults[i] != 1 {
			t.Errorf("eclipse phase %d fault mult %v, want 1", i, env.Mults[i])
		}
		if !s.Phases[i].Eclipse && env.Mults[i] <= 1 {
			t.Errorf("sunlit phase %d fault mult %v, want > 1", i, env.Mults[i])
		}
	}
}

func TestEclipseFractionOverride(t *testing.T) {
	p := COTSProfile(1)
	p.EclipseFraction = 0
	s, err := Build(p, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Phases {
		if s.Phases[i].Eclipse {
			t.Fatal("zero eclipse fraction must produce no eclipse phases")
		}
	}
	p.EclipseFraction = 0.5
	s, err = Build(p, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	period := p.Orbit.Period()
	if len(s.Phases) < 2 || math.Abs((s.End(1)-s.Phases[1].Start)-0.5*period) > 1e-6 {
		t.Error("eclipse override 0.5 must produce half-period eclipses")
	}
}

func TestSurvivalConfigValidate(t *testing.T) {
	if err := DefaultSurvivalConfig(1).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*SurvivalConfig)
		want   string // substring of the error
	}{
		{"invalid policy", func(c *SurvivalConfig) { c.Policy.Target = 0 }, "target"},
		{"invalid profile", func(c *SurvivalConfig) { c.Profile.Severity = 2 }, "severity"},
		{"invalid EPS", func(c *SurvivalConfig) { c.Solar.Lifetime = 0 }, "lifetime"},
		{"zero trials", func(c *SurvivalConfig) { c.Trials = 0 }, "trials"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultSurvivalConfig(1)
			tc.mutate(&cfg)
			_, err := Survive(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Survive error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

func TestSurviveDeterministicAndMonotone(t *testing.T) {
	cfg := DefaultSurvivalConfig(0)
	cfg.Trials = 40
	base, err := Survive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Survive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, again) {
		t.Error("Survive must be deterministic")
	}
	if base.CapacityFactor != 1 {
		t.Errorf("severity-0 capacity factor %v, want 1", base.CapacityFactor)
	}
	if len(base.Years) != 15 {
		t.Errorf("got %d year points, want 15", len(base.Years))
	}
	// Cross-check against the lifecycle engine: head-count availability
	// and units built use identical fleet semantics, so at severity 0
	// the numbers must be close (different RNG streams, same process).
	lc, err := cfg.Policy.Simulate(cfg.Trials, 99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base.Availability-lc.Availability) > 0.03 {
		t.Errorf("availability %v vs lifecycle %v beyond 3%%", base.Availability, lc.Availability)
	}
	if math.Abs(base.UnitsBuilt-lc.UnitsBuilt) > 0.05*lc.UnitsBuilt {
		t.Errorf("units built %v vs lifecycle %v beyond 5%%", base.UnitsBuilt, lc.UnitsBuilt)
	}

	// Severity must not increase capacity availability, and capacity
	// can never beat head count (aging and throttling only subtract).
	prev := math.Inf(1)
	for _, sev := range []float64{0, 0.5, 1} {
		c := DefaultSurvivalConfig(sev)
		c.Trials = 40
		r, err := Survive(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.CapacityAvailability > prev+1e-9 {
			t.Errorf("capacity availability rose to %v at severity %v", r.CapacityAvailability, sev)
		}
		prev = r.CapacityAvailability
		if r.CapacityAvailability > r.Availability+1e-9 {
			t.Errorf("capacity availability %v above head-count %v", r.CapacityAvailability, r.Availability)
		}
	}
	// With aging disabled, severity 0 leaves nothing to subtract: the
	// two availability metrics coincide exactly.
	noAge := DefaultSurvivalConfig(0)
	noAge.Trials = 40
	noAge.Solar.Cell.AnnualDegradation = 0
	r, err := Survive(noAge)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.CapacityAvailability-r.Availability) > 1e-9 {
		t.Errorf("no-aging severity-0 capacity availability %v must equal head-count %v",
			r.CapacityAvailability, r.Availability)
	}
}

func TestSurviveTrialWeekBuckets(t *testing.T) {
	// Regression: the trial loop used to advance program time by repeated
	// float addition (t += 1/52), so accumulated rounding error made
	// int(t) misbucket year-boundary weeks — year 0 absorbed week 52 —
	// and the loop could run a step long or short over a multi-year
	// horizon. With the integer week index every year must hold exactly
	// 52 weekly steps.
	cfg := DefaultSurvivalConfig(0)
	years := int(math.Ceil(float64(cfg.Policy.Horizon)))
	a := cfg.trial(par.NewRand(par.ForkSeed(cfg.Seed, 0)), cfg.tabulateAging(1), years)
	if got, want := a.steps, float64(years)*52; got != want {
		t.Errorf("trial ran %v weekly steps over %d years, want %v", got, years, want)
	}
	for y := 0; y < years; y++ {
		if a.yearSteps[y] != 52 {
			t.Errorf("year %d accumulated %v weekly steps, want 52", y, a.yearSteps[y])
		}
	}
}

func TestSurviveAgingOnly(t *testing.T) {
	// With no early failures and lead-time 0 the fleet is always full;
	// capacity then reflects pure array aging and the capacity factor.
	cfg := DefaultSurvivalConfig(1)
	cfg.Trials = 4
	cfg.Policy.EarlyFailureMTTF = 0
	cfg.Policy.ReplacementLeadTime = 0
	r, err := Survive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Synchronized design-lifetime retirements leave one-week gaps even
	// with zero lead time (same semantics as lifecycle.Simulate), so the
	// availability is near — not exactly — 1.
	if r.Availability < 0.98 {
		t.Errorf("no-failure program availability %v, want ~1", r.Availability)
	}
	size := float64(cfg.Policy.Target + cfg.Policy.Spares)
	maxCap := r.CapacityFactor * size
	if r.MeanCapacity >= maxCap || r.MeanCapacity <= 0 {
		t.Errorf("mean capacity %v out of (0, %v)", r.MeanCapacity, maxCap)
	}
}

func TestBuildRejectsHugeDESHorizon(t *testing.T) {
	if _, err := Build(COTSProfile(1), 250*365*24*time.Hour); err == nil {
		t.Error("multi-century DES horizon must error toward the survivability run")
	}
}

func TestSurviveAllocsPerTrial(t *testing.T) {
	// Each trial reseeds a pooled generator, so an extra trial costs its
	// accumulators and fleet, not a fresh ~4.9 KB source.
	if partest.RaceEnabled {
		t.Skip("the race detector drops pooled generators")
	}
	cfg := DefaultSurvivalConfig(0.5)
	per := partest.BytesPerExtraItem(t, 20, 220, func(n int) {
		cfg.Trials = n
		if _, err := Survive(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if per >= 1024 {
		t.Errorf("Survive allocates %.0f B per extra trial, want < 1 KB", per)
	}
}
