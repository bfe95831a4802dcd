package thermal

import (
	"math"
	"testing"
	"testing/quick"

	"sudc/internal/units"
)

func TestPaperRadiatorAnchor(t *testing.T) {
	// Paper §III-B: "A 1 m² radiator (ε = 0.86) at 45 °C will emit just shy
	// of 1 kW when both radiator faces are oriented toward deep space."
	got := DefaultRadiator.FluxPerArea() // W from 1 m²
	if got < 950 || got >= 1000 {
		t.Errorf("1 m² @45°C emits %.1f W, want just shy of 1000", got)
	}
}

func TestFourSquareMeterRadiatorFor4kW(t *testing.T) {
	// Paper: "Only a 4 m² radiator can support the heat dissipated by our
	// 4 kW SµDCs."
	a, err := DefaultRadiator.AreaFor(units.KW(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.SquareMeters(); got < 3.8 || got > 4.3 {
		t.Errorf("area for 4 kW = %.2f m², want ≈4", got)
	}
}

func TestAreaForErrors(t *testing.T) {
	if _, err := DefaultRadiator.AreaFor(units.Power(-5)); err == nil {
		t.Error("negative heat load must error")
	}
	bad := DefaultRadiator
	bad.Emissivity = 0
	if _, err := bad.AreaFor(units.KW(1)); err == nil {
		t.Error("zero emissivity must error")
	}
	cold := DefaultRadiator
	cold.Temperature = 2.0 // below the sink
	if _, err := cold.AreaFor(units.KW(1)); err == nil {
		t.Error("radiator colder than sink must error")
	}
}

func TestOneSidedHalvesFlux(t *testing.T) {
	one := DefaultRadiator
	one.TwoSided = false
	if !units.ApproxEqual(2*one.FluxPerArea(), DefaultRadiator.FluxPerArea(), 1e-12) {
		t.Error("two-sided radiator must emit exactly twice a one-sided one")
	}
}

func TestCoP(t *testing.T) {
	cop, err := DefaultHeatPump.CoP()
	if err != nil {
		t.Fatal(err)
	}
	// Carnot for 293.15 K → 318.15 K is 293.15/25 ≈ 11.7; at 40% ≈ 4.7.
	if cop < 4 || cop > 5.5 {
		t.Errorf("CoP = %.2f, want ≈4.7", cop)
	}
	bad := DefaultHeatPump
	bad.Hot = bad.Cold
	if _, err := bad.CoP(); err == nil {
		t.Error("Hot == Cold must error")
	}
}

func TestPumpPowerFraction(t *testing.T) {
	// Heat pump power for 4 kW of heat should be a modest fraction (~20%).
	p, err := DefaultHeatPump.PumpPower(units.KW(4))
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(p) / 4000
	if frac < 0.1 || frac > 0.35 {
		t.Errorf("pump power fraction = %.3f, want 0.1-0.35", frac)
	}
}

func TestSizeIncludesPumpHeat(t *testing.T) {
	d, err := Size(units.KW(4), DefaultRadiator, DefaultHeatPump)
	if err != nil {
		t.Fatal(err)
	}
	if d.RadiatedPower != d.HeatLoad+d.PumpPower {
		t.Error("radiated power must include pump dissipation")
	}
	// So the radiator is larger than the no-pump 4 m².
	noPump, _ := DefaultRadiator.AreaFor(units.KW(4))
	if d.Area <= noPump {
		t.Error("active loop must need more radiator area than heat load alone")
	}
	if d.TotalMass() <= 0 {
		t.Error("thermal mass must be positive")
	}
}

func TestSizeZeroLoad(t *testing.T) {
	d, err := Size(0, DefaultRadiator, DefaultHeatPump)
	if err != nil {
		t.Fatal(err)
	}
	if d.Area != 0 || d.TotalMass() != 0 {
		t.Errorf("zero load must size a zero subsystem, got %+v", d)
	}
}

func TestHotterRadiatorIsSmaller(t *testing.T) {
	// The Figure 12 trade-off: for a fixed 4 kW rejection target the
	// panel area falls as the radiator runs hotter.
	var prev units.Area
	for i, c := range []float64{0, 45, 90} {
		r := DefaultRadiator
		r.Temperature = units.Celsius(c)
		a, err := r.AreaFor(units.KW(4))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && a >= prev {
			t.Errorf("area at %v °C = %v, not below %v at the cooler point", c, a, prev)
		}
		prev = a
	}
}

func TestT4Scaling(t *testing.T) {
	// Doubling absolute temperature (with negligible sink) raises flux ~16×.
	r := DefaultRadiator
	r.Temperature = 300
	f1 := r.FluxPerArea()
	r.Temperature = 600
	f2 := r.FluxPerArea()
	if ratio := f2 / f1; math.Abs(ratio-16) > 0.01 {
		t.Errorf("T⁴ scaling ratio = %.3f, want ≈16", ratio)
	}
}

func TestSizeMonotoneInLoad(t *testing.T) {
	f := func(raw uint16) bool {
		q := units.Power(10 + float64(raw))
		d1, err1 := Size(q, DefaultRadiator, DefaultHeatPump)
		d2, err2 := Size(q+50, DefaultRadiator, DefaultHeatPump)
		if err1 != nil || err2 != nil {
			return false
		}
		return d2.Area > d1.Area && d2.TotalMass() > d1.TotalMass()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSizePassive(t *testing.T) {
	d, err := SizePassive(units.KW(4), DefaultRadiator, units.Celsius(20))
	if err != nil {
		t.Fatal(err)
	}
	if d.PumpPower != 0 || d.PumpMass != 0 {
		t.Error("passive design must have no pump")
	}
	if d.RadiatedPower != d.HeatLoad {
		t.Error("passive design radiates exactly the heat load")
	}
	// Cooler panels need more area than the active 45 °C design needs for
	// the same heat load alone.
	active, _ := DefaultRadiator.AreaFor(units.KW(4))
	if d.Area <= active {
		t.Errorf("passive 20 °C area (%v) must exceed active 45 °C area (%v)", d.Area, active)
	}
	if _, err := SizePassive(units.Power(-1), DefaultRadiator, units.Celsius(20)); err == nil {
		t.Error("negative load must error")
	}
	if _, err := SizePassive(units.KW(1), DefaultRadiator, 1); err == nil {
		t.Error("sub-sink plate temperature must error")
	}
}
