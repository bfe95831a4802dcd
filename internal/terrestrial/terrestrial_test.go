package terrestrial

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sudc/internal/units"
)

func TestModelsValid(t *testing.T) {
	if len(Models()) != 3 {
		t.Fatal("want three terrestrial models")
	}
	for _, m := range Models() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestValidateCatchesBadShares(t *testing.T) {
	bad := Model{Name: "bad", Shares: map[Category]float64{Servers: 0.5}}
	if err := bad.Validate(); err == nil {
		t.Error("shares not summing to 1 must error")
	}
	neg := Model{Name: "neg", Shares: map[Category]float64{Servers: -0.5, Other: 1.5}}
	if err := neg.Validate(); err == nil {
		t.Error("negative share must error")
	}
}

func TestPaperShareBands(t *testing.T) {
	// Paper: "server costs range from 57% to 72% of TCO, while power costs
	// are only 7% to 13% of TCO in terrestrial datacenters".
	for _, m := range Models() {
		if s := m.Share(Servers); s < 0.57 || s > 0.72 {
			t.Errorf("%s: server share %.2f outside [0.57, 0.72]", m.Name, s)
		}
		if p := m.Share(PowerEnergy); p < 0.07 || p > 0.13 {
			t.Errorf("%s: power share %.2f outside [0.07, 0.13]", m.Name, p)
		}
	}
}

func TestFig15Asymptotes(t *testing.T) {
	// Figure 15's labels at large efficiency scalar: Default ≈ 0.93,
	// HPE ≈ 0.85, LPO ≈ 0.76 (constant hardware price).
	tests := []struct {
		mode ScalingMode
		want float64
	}{
		{DefaultScaling, 0.93},
		{HPEScaling, 0.85},
		{LPOScaling, 0.76},
	}
	for _, tt := range tests {
		got, err := Hardy.RelativeTCO(1e6, tt.mode, ConstantPrice)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 0.035 {
			t.Errorf("%v asymptote = %.3f, want ≈%.2f", tt.mode, got, tt.want)
		}
	}
}

func TestFig15BaselineIsOne(t *testing.T) {
	for _, m := range Models() {
		for _, mode := range []ScalingMode{DefaultScaling, HPEScaling, LPOScaling} {
			got, err := m.RelativeTCO(1, mode, ConstantPrice)
			if err != nil {
				t.Fatal(err)
			}
			if !units.ApproxEqual(got, 1, 1e-12) {
				t.Errorf("%s/%v at e=1 = %v, want 1", m.Name, mode, got)
			}
		}
	}
}

func TestFig15DefaultImpactUnderTenPercent(t *testing.T) {
	// Paper: "the impact of compute energy efficiency on TCO of a
	// terrestrial datacenter is minimal — less than ten percent for the
	// On-Earth (Default) case", and ≤25% for LPO.
	d, _ := Hardy.RelativeTCO(1000, DefaultScaling, ConstantPrice)
	if 1-d >= 0.10 {
		t.Errorf("Default saving = %.3f, want <0.10", 1-d)
	}
	l, _ := Hardy.RelativeTCO(1000, LPOScaling, ConstantPrice)
	if 1-l >= 0.25 {
		t.Errorf("LPO saving = %.3f, want <0.25", 1-l)
	}
}

func TestFig16LogPriceDoublesTerrestrialTCO(t *testing.T) {
	// Paper: with logarithmic price scaling, terrestrial TCO shows "over a
	// 100% increase in TCO with 200× energy efficiency scaling".
	got, err := Barroso.RelativeTCO(200, DefaultScaling, LogarithmicPrice)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 2.0 {
		t.Errorf("Barroso at 200× with log price = %.2f, want >2", got)
	}
	// And rises monotonically past e ≈ 10 (price growth beats energy saving).
	v100, _ := Barroso.RelativeTCO(100, DefaultScaling, LogarithmicPrice)
	v1000, _ := Barroso.RelativeTCO(1000, DefaultScaling, LogarithmicPrice)
	if !(v1000 > v100 && v100 > 1) {
		t.Errorf("log-price TCO must grow: %v %v", v100, v1000)
	}
}

func TestPriceMultiplier(t *testing.T) {
	// "computer hardware which is 100× more energy efficient than baseline
	// costs 3× more money."
	if got := LogarithmicPrice.PriceMultiplier(100); !units.ApproxEqual(got, 3, 1e-12) {
		t.Errorf("log price at 100× = %v, want 3", got)
	}
	if got := ConstantPrice.PriceMultiplier(100); got != 1 {
		t.Errorf("constant price at 100× = %v, want 1", got)
	}
	if got := LogarithmicPrice.PriceMultiplier(0.5); got != 1 {
		t.Errorf("sub-1 efficiency clamps to baseline, got %v", got)
	}
}

func TestRelativeTCOErrors(t *testing.T) {
	if _, err := Hardy.RelativeTCO(0.5, DefaultScaling, ConstantPrice); err == nil {
		t.Error("efficiency < 1 must error")
	}
	bad := Model{Name: "bad", Shares: map[Category]float64{Servers: 2}}
	if _, err := bad.RelativeTCO(2, DefaultScaling, ConstantPrice); err == nil {
		t.Error("invalid model must error")
	}
}

func TestScalingModeOrdering(t *testing.T) {
	// At any efficiency > 1: LPO saves most, Default least.
	f := func(raw uint8) bool {
		e := 1 + float64(raw)
		d, err1 := Hardy.RelativeTCO(e, DefaultScaling, ConstantPrice)
		h, err2 := Hardy.RelativeTCO(e, HPEScaling, ConstantPrice)
		l, err3 := Hardy.RelativeTCO(e, LPOScaling, ConstantPrice)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return l <= h && h <= d && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	if !strings.Contains(HPEScaling.String(), "HPE") {
		t.Error("ScalingMode string")
	}
	if Servers.String() != "servers" {
		t.Error("Category string")
	}
	if !strings.Contains(Category(55).String(), "55") || !strings.Contains(ScalingMode(55).String(), "55") {
		t.Error("unknown enum strings")
	}
}
