package orbit

import (
	"math"
	"testing"
	"testing/quick"

	"sudc/internal/units"
)

func TestPeriod550km(t *testing.T) {
	// A 550 km circular orbit has a ~95.6 minute period.
	p := DefaultEO.Period() / 60
	if p < 94 || p > 97 {
		t.Errorf("550 km period = %.2f min, want ≈95.6", p)
	}
}

func TestEclipseFraction(t *testing.T) {
	// Canonical LEO worst-case eclipse fraction is ≈ 0.35–0.40.
	f := DefaultEO.EclipseFraction()
	if f < 0.33 || f > 0.42 {
		t.Errorf("eclipse fraction = %.3f, want ≈0.37", f)
	}
}

func TestEclipseFractionDecreasesWithAltitude(t *testing.T) {
	low, high := LEO(400e3), LEO(1200e3)
	if low.EclipseFraction() <= high.EclipseFraction() {
		t.Errorf("eclipse fraction should shrink with altitude: %.3f vs %.3f",
			low.EclipseFraction(), high.EclipseFraction())
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		o       Orbit
		wantErr bool
	}{
		{"default", DefaultEO, false},
		{"too low", LEO(100e3), true},
		{"too high", LEO(3000e3), true},
		{"bad inclination", Orbit{AltitudeM: 550e3, InclinationDeg: 200}, true},
	}
	for _, tt := range tests {
		if err := tt.o.Validate(); (err != nil) != tt.wantErr {
			t.Errorf("%s: Validate() err = %v, wantErr = %v", tt.name, err, tt.wantErr)
		}
	}
}

func TestDragDecayRate(t *testing.T) {
	// Anchor point: ~20 m/s/yr at 400 km.
	if got := LEO(400e3).DragDecayRate(); math.Abs(got-20) > 0.1 {
		t.Errorf("drag Δv at 400 km = %v, want 20", got)
	}
	// Monotone decreasing with altitude.
	if LEO(550e3).DragDecayRate() >= LEO(400e3).DragDecayRate() {
		t.Error("drag Δv should decrease with altitude")
	}
	// 550 km should be single-digit m/s per year.
	if got := LEO(550e3).DragDecayRate(); got < 0.5 || got > 10 {
		t.Errorf("drag Δv at 550 km = %v, want single-digit m/s/yr", got)
	}
}

func TestDeltaVBudgetScalesWithLifetime(t *testing.T) {
	b := DefaultEO.BudgetFor(5)
	dv1 := float64(b.Total(1))
	dv5 := float64(b.Total(5))
	dv10 := float64(b.Total(10))
	if dv5 <= dv1 || dv10 <= dv5 {
		t.Errorf("Δv must grow with lifetime: %v %v %v", dv1, dv5, dv10)
	}
	// Linear in station-keeping: (dv10-dv5) == (dv5-dv1)*(5/4)
	lhs := dv10 - dv5
	rhs := (dv5 - dv1) * 5 / 4
	if !units.ApproxEqual(lhs, rhs, 1e-9) {
		t.Errorf("station-keeping not linear in lifetime: %v vs %v", lhs, rhs)
	}
}

func TestDeorbitDvReasonable(t *testing.T) {
	// Perigee-lowering from 550 km to 50 km costs on the order of 100-160 m/s.
	b := DefaultEO.BudgetFor(5)
	if b.Deorbit < 100 || b.Deorbit > 200 {
		t.Errorf("deorbit Δv = %.1f m/s, want ≈140", b.Deorbit)
	}
}

func TestRadiationAnchors(t *testing.T) {
	// Paper §VIII: non-polar LEO ~0.5 krad/yr @ 200 mils, ~0.2 @ 400 mils.
	nonPolar := Orbit{AltitudeM: 550e3, InclinationDeg: 53}
	r200 := nonPolar.RadiationAt(200)
	if !units.ApproxEqual(float64(r200.DosePerYear), 0.5, 0.01) {
		t.Errorf("LEO @200 mils = %v krad/yr, want 0.5", r200.DosePerYear)
	}
	r400 := nonPolar.RadiationAt(400)
	if !units.ApproxEqual(float64(r400.DosePerYear), 0.2, 0.01) {
		t.Errorf("LEO @400 mils = %v krad/yr, want 0.2", r400.DosePerYear)
	}
	// GEO ~4 krad/yr @ 200 mils.
	g := GEORadiation(200)
	if !units.ApproxEqual(float64(g.DosePerYear), 4.0, 0.01) {
		t.Errorf("GEO @200 mils = %v krad/yr, want 4.0", g.DosePerYear)
	}
}

func TestPolarOrbitSeesMoreDose(t *testing.T) {
	polar := Orbit{AltitudeM: 550e3, InclinationDeg: 97.5}
	nonPolar := Orbit{AltitudeM: 550e3, InclinationDeg: 53}
	if polar.RadiationAt(200).DosePerYear <= nonPolar.RadiationAt(200).DosePerYear {
		t.Error("polar orbit should accumulate more dose than 53°")
	}
}

func TestLifetimeDose(t *testing.T) {
	nonPolar := Orbit{AltitudeM: 550e3, InclinationDeg: 53}
	d := nonPolar.RadiationAt(200).LifetimeDose(5)
	// 5-year LEO mission: ~2.5 krad — an order of magnitude under the
	// ~10+ krad tolerance of modern COTS silicon (paper's argument).
	if float64(d) < 2 || float64(d) > 3 {
		t.Errorf("5-yr LEO dose = %v, want ≈2.5 krad", d)
	}
}

// imagingRate is how fast an EO satellite on orbit o produces frames of
// the given ground length, in frames per second: its ground-track speed
// (one Earth circumference per period) over the frame length.
func imagingRate(o Orbit, groundFrameLengthM float64) float64 {
	groundSpeed := 2 * math.Pi * units.EarthRadius / o.Period()
	return groundSpeed / groundFrameLengthM
}

func TestImagingRateSixPerMinute(t *testing.T) {
	// The paper: "A LEO Earth observation satellite may produce around six
	// images per minute (exact rate depends on orbital velocity, and
	// ground frame size)". Ground speed ~7 km/s; a ~70 km frame ≈ 6/min.
	rate := imagingRate(DefaultEO, 70e3) * 60
	if rate < 5 || rate > 7 {
		t.Errorf("imaging rate = %.2f frames/min, want ≈6", rate)
	}
}

func TestPeriodMonotoneInAltitude(t *testing.T) {
	f := func(raw uint16) bool {
		alt := 200e3 + math.Mod(float64(raw)*25, 1.5e6) // 200-1700 km
		lo, hi := LEO(alt), LEO(alt+50e3)
		return lo.Period() < hi.Period()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDoseDecreasesWithShielding(t *testing.T) {
	f := func(raw uint8) bool {
		mils := 50 + float64(raw)*3
		o := Orbit{AltitudeM: 550e3, InclinationDeg: 53}
		return o.RadiationAt(mils+10).DosePerYear < o.RadiationAt(mils).DosePerYear
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGEO(t *testing.T) {
	g := GEO()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.IsGEO() || DefaultEO.IsGEO() {
		t.Error("IsGEO misclassifies")
	}
	// GEO period ≈ 24 h (sidereal day, 23.93 h).
	if p := g.Period() / 3600; p < 23.8 || p > 24.1 {
		t.Errorf("GEO period = %.2f h, want ≈23.93", p)
	}
	// GEO eclipse fraction is tiny (seasonal, ≲5%).
	if f := g.EclipseFraction(); f > 0.06 {
		t.Errorf("GEO eclipse fraction = %.3f, want small", f)
	}
	// Disposal is a cheap graveyard raise, not a deorbit.
	b := g.BudgetFor(15)
	if b.Deorbit > 20 {
		t.Errorf("GEO disposal Δv = %.1f m/s, want ≈11", b.Deorbit)
	}
	// No meaningful drag.
	if g.DragDecayRate() > 1e-6 {
		t.Errorf("GEO drag = %v, want ≈0", g.DragDecayRate())
	}
	// Radiation: the paper's 4 krad/yr behind 200 mils.
	r := g.RadiationAt(200)
	if !units.ApproxEqual(float64(r.DosePerYear), 4.0, 0.01) {
		t.Errorf("GEO dose = %v, want 4 krad/yr", r.DosePerYear)
	}
	if r.Regime != "GEO" {
		t.Errorf("regime = %q", r.Regime)
	}
}

func TestMidAltitudeRejected(t *testing.T) {
	if err := (Orbit{AltitudeM: 5000e3, InclinationDeg: 0}).Validate(); err == nil {
		t.Error("MEO gap must be rejected")
	}
	if err := (Orbit{AltitudeM: 50000e3, InclinationDeg: 0}).Validate(); err == nil {
		t.Error("super-GEO must be rejected")
	}
}
