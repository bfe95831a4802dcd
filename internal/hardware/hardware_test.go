package hardware

import (
	"sort"
	"testing"

	"sudc/internal/units"
)

func TestCatalogComplete(t *testing.T) {
	c := Catalog()
	if len(c) != 8 {
		t.Fatalf("catalog has %d devices, want 8 (Table II)", len(c))
	}
	names := map[string]bool{}
	for _, d := range c {
		if d.Name == "" {
			t.Error("device with empty name")
		}
		if names[d.Name] {
			t.Errorf("duplicate device %q", d.Name)
		}
		names[d.Name] = true
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("A100")
	if err != nil {
		t.Fatal(err)
	}
	if d.TF32TFLOPs != 156 {
		t.Errorf("A100 TF32 = %v, want 156", d.TF32TFLOPs)
	}
	if _, err := ByName("TPUv9"); err == nil {
		t.Error("unknown device must error")
	}
}

func TestPaperEfficiencyRatios(t *testing.T) {
	// Paper §III: "the A100 and H100 have max FLOPs/W advantage of 5.1×
	// and 21.2×, respectively, over RTX 3090" (using tensor ops).
	base := RTX3090.FLOPsPerWatt(true)
	a := A100.FLOPsPerWatt(true) / base
	h := H100.FLOPsPerWatt(true) / base
	if !units.ApproxEqual(a, 5.1, 0.02) {
		t.Errorf("A100/3090 FLOPs/W ratio = %.2f, want ≈5.1", a)
	}
	if !units.ApproxEqual(h, 21.2, 0.03) {
		t.Errorf("H100/3090 FLOPs/W ratio = %.2f, want ≈21.2", h)
	}
}

func TestPaperPriceRatios(t *testing.T) {
	// Paper §III: A100 and H100 max FLOPs/$ are 0.50× and 0.82× the 3090.
	base := RTX3090.FLOPsPerDollar(false)
	if base <= 0 {
		t.Fatal("3090 FLOPs/$ must be positive")
	}
	a := A100.FLOPsPerDollar(true) / base
	h := H100.FLOPsPerDollar(true) / base
	if !units.ApproxEqual(a, 0.50, 0.15) {
		t.Errorf("A100/3090 FLOPs/$ ratio = %.2f, want ≈0.50", a)
	}
	if !units.ApproxEqual(h, 0.82, 0.05) {
		t.Errorf("H100/3090 FLOPs/$ ratio = %.2f, want ≈0.82", h)
	}
}

func TestVirtex5QVvsH100(t *testing.T) {
	// Paper §VIII: rad-hard Virtex-5QV is 27× less energy-efficient than
	// H100 in FP32, 405× with TF32.
	fp32 := H100.FLOPsPerWatt(false) / Virtex5QV.FLOPsPerWatt(false)
	tf32 := H100.FLOPsPerWatt(true) / Virtex5QV.FLOPsPerWatt(false)
	if !units.ApproxEqual(fp32, 27, 0.03) {
		t.Errorf("H100/Virtex FP32 efficiency ratio = %.1f, want ≈27", fp32)
	}
	if !units.ApproxEqual(tf32, 405, 0.03) {
		t.Errorf("H100(TF32)/Virtex efficiency ratio = %.0f, want ≈405", tf32)
	}
}

func TestMissingFieldsReturnZero(t *testing.T) {
	if Radeon780M.FLOPsPerDollar(false) != 0 {
		t.Error("no-price device must report zero FLOPs/$")
	}
	if KintexXQR.FLOPsPerWatt(false) != 0 {
		t.Error("no-TDP device must report zero FLOPs/W")
	}
}

func TestRankByEfficiency(t *testing.T) {
	// Ranked by tensor FLOPs/W — the ordering that, per the paper's
	// Figure 9 analysis, sets performance per TCO dollar — the catalog
	// puts the H100 first and a rad-hard part last.
	var ranked []Device
	for _, d := range Catalog() {
		if d.TDP > 0 {
			ranked = append(ranked, d)
		}
	}
	if len(ranked) == 0 {
		t.Fatal("no catalog device publishes a TDP")
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		return ranked[i].FLOPsPerWatt(true) > ranked[j].FLOPsPerWatt(true)
	})
	if ranked[0].Name != "H100" {
		t.Errorf("most efficient device = %q, want H100", ranked[0].Name)
	}
	if last := ranked[len(ranked)-1]; last.Class != RadHard {
		t.Errorf("least efficient ranked device = %q, want a rad-hard part", last.Name)
	}
}

func TestDefaultServer(t *testing.T) {
	// The paper's packaging assumption: 35 W/kg servers at a 1.6×
	// integration markup over the bare device price.
	s := DefaultServer(H100)
	if s.Device != H100 || s.SpecificPower != 35 || s.IntegrationCostFactor != 1.6 {
		t.Errorf("DefaultServer(H100) = %+v, want the H100 at 35 W/kg and a 1.6× markup", s)
	}
}

func TestClassString(t *testing.T) {
	if COTS.String() != "COTS" || RadHard.String() != "rad-hard" {
		t.Error("Class.String mismatch")
	}
}
