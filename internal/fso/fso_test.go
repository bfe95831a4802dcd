package fso

import (
	"math"
	"testing"
	"testing/quick"

	"sudc/internal/units"
)

func TestSizeZeroRate(t *testing.T) {
	d, err := Size(CondorClass, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Heads != 0 || d.Mass != 0 || d.Power != 0 || d.HardwareCost != 0 {
		t.Errorf("zero rate must produce empty design: %+v", d)
	}
}

func TestSizeNegativeRate(t *testing.T) {
	if _, err := Size(CondorClass, -1); err == nil {
		t.Error("negative rate must error")
	}
}

func TestSizeInvalidLink(t *testing.T) {
	if _, err := Size(Link{Name: "dud"}, units.GbpsOf(1)); err == nil {
		t.Error("zero-capacity link must error")
	}
	noSat := CondorClass
	noSat.SaturationRate = 0
	if _, err := Size(noSat, units.GbpsOf(1)); err == nil {
		t.Error("zero saturation rate must error")
	}
	noPeak := CondorClass
	noPeak.PeakPower = 0
	if _, err := Size(noPeak, units.GbpsOf(1)); err == nil {
		t.Error("zero peak power must error")
	}
}

func TestSaturatingPower(t *testing.T) {
	// At R = R₀ the subsystem draws (1 − 1/e) ≈ 63.2% of peak.
	d, err := Size(CondorClass, CondorClass.SaturationRate)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(CondorClass.PeakPower) * (1 - 1/math.E)
	if !units.ApproxEqual(float64(d.Power), want, 1e-9) {
		t.Errorf("power at R₀ = %v, want %v", d.Power, want)
	}
	// Far above R₀ the subsystem approaches but never exceeds peak.
	big, _ := Size(CondorClass, units.GbpsOf(2000))
	if big.Power > CondorClass.PeakPower {
		t.Error("power must never exceed peak")
	}
	if float64(big.Power) < 0.99*float64(CondorClass.PeakPower) {
		t.Error("power at 2 Tbit/s should be within 1% of peak")
	}
}

func TestNearLinearBelowSaturation(t *testing.T) {
	// Well below R₀, doubling the rate roughly doubles the cost
	// (within the curvature of the exponential).
	d1, _ := Size(CondorClass, units.GbpsOf(1))
	d2, _ := Size(CondorClass, units.GbpsOf(2))
	ratio := float64(d2.Power) / float64(d1.Power)
	if ratio < 1.9 || ratio > 2.0 {
		t.Errorf("low-rate doubling ratio = %.3f, want ≈2", ratio)
	}
}

func TestEconomiesOfScale(t *testing.T) {
	// The paper's Fig. 7 behaviour: 8× the capacity costs much less than
	// 8× (the marginal Gbit/s gets cheaper).
	small, _ := Size(CondorClass, units.GbpsOf(25))
	large, _ := Size(CondorClass, units.GbpsOf(200))
	if ratio := float64(large.Power) / float64(small.Power); ratio > 2 {
		t.Errorf("200G/25G power ratio = %.2f, want <2 (economies of scale)", ratio)
	}
	if large.HardwareCost <= small.HardwareCost {
		t.Error("more capacity must still cost more")
	}
}

func TestHeadCounting(t *testing.T) {
	d, _ := Size(CondorClass, units.GbpsOf(250))
	if d.Heads != 3 {
		t.Errorf("250 Gbit/s needs %d heads, want 3", d.Heads)
	}
	d, _ = Size(CondorClass, units.GbpsOf(25))
	if d.Heads != 1 {
		t.Errorf("25 Gbit/s needs %d heads, want 1", d.Heads)
	}
}

func TestXBandEquivalent(t *testing.T) {
	// At one head's full rate the equivalent is the X-band reference.
	got := XBandEquivalent(CondorClass, CondorClass.HeadRate)
	if !units.ApproxEqual(float64(got), float64(XBandReferenceRate), 1e-12) {
		t.Errorf("full-rate equivalent = %v, want %v", got, XBandReferenceRate)
	}
	// 25 Gbit/s of FSO books as only 125 Mbit/s of RF-era C&DH throughput.
	got = XBandEquivalent(CondorClass, units.GbpsOf(25))
	if !units.ApproxEqual(float64(got), 125e6, 1e-9) {
		t.Errorf("25 Gbit/s equivalent = %v, want 125 Mbit/s", got)
	}
	if XBandEquivalent(CondorClass, 0) != 0 {
		t.Error("zero rate maps to zero")
	}
	if XBandEquivalent(Link{}, units.GbpsOf(1)) != 0 {
		t.Error("zero-capacity link maps to zero")
	}
}

func TestGEORelayIsHeavierAndHungrier(t *testing.T) {
	leo, _ := Size(CondorClass, units.GbpsOf(10))
	geo, _ := Size(GEORelayClass, units.GbpsOf(10))
	if geo.Mass <= leo.Mass {
		t.Error("LEO-GEO subsystem should be heavier than LEO-LEO at same rate")
	}
	if geo.Power <= leo.Power {
		t.Error("LEO-GEO subsystem should draw more power at same rate")
	}
}

func TestSizeMonotoneInRate(t *testing.T) {
	f := func(raw uint16) bool {
		r := units.DataRate(1e9 + float64(raw)*1e8)
		d1, err1 := Size(CondorClass, r)
		d2, err2 := Size(CondorClass, r+5e8)
		if err1 != nil || err2 != nil {
			return false
		}
		// Non-strict at very high rates where the law has saturated to
		// the peak within float precision.
		return d2.Power >= d1.Power && d2.Mass >= d1.Mass &&
			d2.HardwareCost >= d1.HardwareCost && d2.Heads >= d1.Heads
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcavityProperty(t *testing.T) {
	// Marginal cost decreases: X(2R) − X(R) < X(R) − X(0).
	f := func(raw uint16) bool {
		r := units.DataRate(1e9 + float64(raw)*2e8)
		d1, err1 := Size(CondorClass, r)
		d2, err2 := Size(CondorClass, 2*r)
		if err1 != nil || err2 != nil {
			return false
		}
		return float64(d2.Power)-float64(d1.Power) <= float64(d1.Power)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
