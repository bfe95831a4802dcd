package compress

import (
	"testing"
	"testing/quick"

	"sudc/internal/units"
)

func TestAllValid(t *testing.T) {
	for _, a := range append(All(), None) {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestRatioOrdering(t *testing.T) {
	// The paper's savings ordering: CCSDS < JPEG2000 < neural.
	if !(CCSDS.Ratio < JPEG2000.Ratio && JPEG2000.Ratio < Neural.Ratio) {
		t.Errorf("ratio ordering broken: %v %v %v", CCSDS.Ratio, JPEG2000.Ratio, Neural.Ratio)
	}
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Ratio >= all[i].Ratio {
			t.Error("All() must be sorted weakest ratio first")
		}
	}
}

func TestCompressedRate(t *testing.T) {
	r, err := Neural.CompressedRate(units.GbpsOf(100))
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(r.Gigabits(), 25, 1e-12) {
		t.Errorf("100 Gbit/s at 4:1 = %v, want 25 Gbit/s", r.Gigabits())
	}
	if _, err := Neural.CompressedRate(-1); err == nil {
		t.Error("negative raw rate must error")
	}
	if _, err := (Algorithm{Name: "bad", Ratio: 0.5}).CompressedRate(1); err == nil {
		t.Error("ratio < 1 must error")
	}
}

func TestNoneIsIdentity(t *testing.T) {
	raw := units.GbpsOf(42)
	r, err := None.CompressedRate(raw)
	if err != nil {
		t.Fatal(err)
	}
	if r != raw {
		t.Errorf("uncompressed rate changed: %v", r)
	}
}

func TestDecodePower(t *testing.T) {
	p := Neural.DecodePower(units.GbpsOf(10))
	if got := p.Watts(); !units.ApproxEqual(got, 50, 1e-9) {
		t.Errorf("neural decode power at 10 Gbit/s = %v W, want 50", got)
	}
	if None.DecodePower(units.GbpsOf(10)) != 0 {
		t.Error("uncompressed stream needs no decode power")
	}
}

func TestDecodePowerEdges(t *testing.T) {
	// DecodePower feeds additively into TCO sums, so invalid inputs must
	// clamp to zero: a negative result would silently reduce cost.
	tests := []struct {
		name string
		alg  Algorithm
		raw  units.DataRate
		want float64
	}{
		{"nominal neural", Neural, units.GbpsOf(10), 50},
		{"zero-energy None", None, units.GbpsOf(10), 0},
		{"zero rate", Neural, 0, 0},
		{"negative raw rate", Neural, units.DataRate(-1e9), 0},
		{"invalid ratio", Algorithm{Name: "bad", Ratio: 0.5, DecodeEnergyPerBit: 1e-9}, units.GbpsOf(1), 0},
		{"negative decode energy", Algorithm{Name: "neg", Ratio: 2, DecodeEnergyPerBit: -1e-9}, units.GbpsOf(1), 0},
	}
	for _, tc := range tests {
		got := tc.alg.DecodePower(tc.raw).Watts()
		if !units.ApproxEqual(got, tc.want, 1e-9) {
			t.Errorf("%s: DecodePower = %v W, want %v", tc.name, got, tc.want)
		}
		if got < 0 {
			t.Errorf("%s: negative decode power %v W would reduce TCO", tc.name, got)
		}
	}
}

func TestLosslessFlags(t *testing.T) {
	if !CCSDS.Lossless || !JPEG2000.Lossless {
		t.Error("CCSDS and JPEG2000 are lossless")
	}
	if Neural.Lossless {
		t.Error("neural coder is quasi-lossless, not lossless")
	}
	if Neural.PSNRdB <= 40 {
		t.Error("neural coder is high-PSNR")
	}
}

func TestCompressedRateNeverIncreases(t *testing.T) {
	f := func(raw uint32) bool {
		rate := units.DataRate(raw)
		for _, a := range All() {
			c, err := a.CompressedRate(rate)
			if err != nil || c > rate {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]Algorithm{
		"":         None,
		"none":     None,
		"ccsds":    CCSDS,
		"CCSDS":    CCSDS,
		"jpeg2000": JPEG2000,
		"neural":   Neural,
	} {
		got, err := ByName(name)
		if err != nil || got.Name != want.Name {
			t.Errorf("ByName(%q) = %v, %v; want %v", name, got.Name, err, want.Name)
		}
	}
	if _, err := ByName("zstd"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
