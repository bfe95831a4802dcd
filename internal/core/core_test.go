package core

import (
	"math"
	"testing"

	"sudc/internal/compress"
	"sudc/internal/hardware"
	"sudc/internal/par"
	"sudc/internal/solar"
	"sudc/internal/sscm"
	"sudc/internal/units"
)

func mustTCO(t *testing.T, c Config) float64 {
	t.Helper()
	v, err := c.TCO()
	if err != nil {
		t.Fatal(err)
	}
	return float64(v)
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig(units.KW(4)).Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero power", func(c *Config) { c.ComputePower = 0 }},
		{"zero lifetime", func(c *Config) { c.Lifetime = 0 }},
		{"no TDP", func(c *Config) { c.Server.Device.TDP = 0 }},
		{"no specific power", func(c *Config) { c.Server.SpecificPower = 0 }},
		{"bad orbit", func(c *Config) { c.Orbit.AltitudeM = 10 }},
		{"bad adcs", func(c *Config) { c.ADCS.WheelCount = 0 }},
		{"bad compression", func(c *Config) { c.Compression.Name = "x"; c.Compression.Ratio = 0.5 }},
	}
	for _, tt := range tests {
		c := DefaultConfig(units.KW(4))
		tt.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tt.name)
		}
		if _, err := c.Build(); err == nil {
			t.Errorf("%s: Build must reject invalid config", tt.name)
		}
	}
}

func TestBuildConverges(t *testing.T) {
	for _, kw := range []float64{0.5, 1, 2, 4, 8, 10} {
		d, err := DefaultConfig(units.KW(kw)).Build()
		if err != nil {
			t.Fatalf("%.1f kW: %v", kw, err)
		}
		// Mass closure: dry mass equals the sum of its parts.
		var sum units.Mass
		for _, it := range d.MassBreakdown() {
			sum += it.Mass
		}
		if !units.ApproxEqual(float64(sum), float64(d.WetMass), 1e-6) {
			t.Errorf("%.1f kW: mass budget %.3f kg != wet %.3f kg",
				kw, sum.Kilograms(), d.WetMass.Kilograms())
		}
		if d.WetMass <= d.DryMass {
			t.Errorf("%.1f kW: no propellant loaded", kw)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	c := DefaultConfig(units.KW(4))
	d1, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := c.Build()
	if d1.DryMass != d2.DryMass || d1.EOLPower != d2.EOLPower {
		t.Error("Build is not deterministic")
	}
	b1, _ := d1.Cost()
	b2, _ := d2.Cost()
	if b1.TCO() != b2.TCO() {
		t.Error("Cost is not deterministic")
	}
}

func TestFourKWReferencePlausible(t *testing.T) {
	d, err := DefaultConfig(units.KW(4)).Build()
	if err != nil {
		t.Fatal(err)
	}
	// ESPA-Grande / smallsat class: hundreds of kg.
	if m := d.WetMass.Kilograms(); m < 400 || m > 1200 {
		t.Errorf("4 kW wet mass = %.0f kg, want 400-1200", m)
	}
	// ISL auto-sizes to the geometric-mean workload: ~26 Gbit/s.
	if g := d.InstalledISLRate.Gigabits(); g < 15 || g > 40 {
		t.Errorf("auto ISL rate = %.1f Gbit/s, want ≈26", g)
	}
	// BOL power roughly 2-3× the compute budget (pump + eclipse + EOL margin).
	ratio := d.Drivers.BOLPower / 4000
	if ratio < 2 || ratio > 3.5 {
		t.Errorf("BOL/compute ratio = %.2f, want 2-3.5", ratio)
	}
	// Radiator sized beyond the paper's passive 4 m² (pump heat included).
	if a := d.Thermal.Area.SquareMeters(); a < 4 || a > 8 {
		t.Errorf("radiator area = %.1f m², want 4-8", a)
	}
}

func TestComputeHardwareUnderOnePercentOfTCO(t *testing.T) {
	// Paper Fig. 5: "the computer hardware cost of a SµDC is < 1% of TCO".
	for _, kw := range []float64{0.5, 4, 10} {
		b, err := DefaultConfig(units.KW(kw)).Breakdown()
		if err != nil {
			t.Fatal(err)
		}
		if s := b.Share(sscm.PayloadCompute); s >= 0.01 {
			t.Errorf("%.1f kW: compute share = %.4f, want < 0.01", kw, s)
		}
	}
}

func TestComputeMassIsSmallShare(t *testing.T) {
	// Paper Fig. 6: compute is a small share of satellite mass.
	d, err := DefaultConfig(units.KW(4)).Build()
	if err != nil {
		t.Fatal(err)
	}
	if s := d.ComputeMassShare(); s > 0.18 {
		t.Errorf("compute mass share = %.3f, want ≤ 0.18", s)
	}
	if (Design{}).ComputeMassShare() != 0 {
		t.Error("zero design must report zero share")
	}
}

func TestPowerPlusThermalAboutAThird(t *testing.T) {
	// Paper §IV-B: "over a third of TCO is in power and thermal management".
	b, err := DefaultConfig(units.KW(4)).Breakdown()
	if err != nil {
		t.Fatal(err)
	}
	got := b.Share(sscm.Power) + b.Share(sscm.Thermal)
	if got < 0.28 || got > 0.42 {
		t.Errorf("power+thermal share = %.3f, want ≈1/3", got)
	}
}

func TestFig5SublinearPowerScaling(t *testing.T) {
	// Paper Fig. 5: 0.5→10 kW (20×) gives >3× but <4× TCO.
	t05 := mustTCO(t, DefaultConfig(units.KW(0.5)))
	t10 := mustTCO(t, DefaultConfig(units.KW(10)))
	ratio := t10 / t05
	if ratio <= 3 || ratio >= 4 {
		t.Errorf("TCO(10kW)/TCO(0.5kW) = %.2f, want in (3,4)", ratio)
	}
}

func TestTCOMonotoneInComputePower(t *testing.T) {
	prev := 0.0
	for _, kw := range []float64{0.5, 1, 2, 3, 4, 6, 8, 10} {
		v := mustTCO(t, DefaultConfig(units.KW(kw)))
		if v <= prev {
			t.Errorf("TCO not monotone at %.1f kW", kw)
		}
		prev = v
	}
}

func TestFig4LifetimeSuperlinear(t *testing.T) {
	// Paper Fig. 4: "For long lifetime missions, the cost grows
	// superlinearly" — per-year cost increments grow with lifetime.
	c := DefaultConfig(units.KW(4))
	var tco [11]float64
	for yr := 1; yr <= 10; yr++ {
		c.Lifetime = units.Years(yr)
		tco[yr] = mustTCO(t, c)
	}
	for yr := 2; yr <= 10; yr++ {
		if tco[yr] <= tco[yr-1] {
			t.Fatalf("TCO must grow with lifetime (year %d)", yr)
		}
	}
	early := tco[3] - tco[1]
	late := tco[10] - tco[8]
	if late <= early {
		t.Errorf("late increments (%.3g) must exceed early (%.3g): superlinear growth", late, early)
	}
}

func TestFig7ISLAnchors(t *testing.T) {
	// Paper Fig. 7: 25 Gbit/s on a 500 W SµDC costs <30% extra TCO;
	// full lightest-app saturation on 4 kW and 10 kW costs <26%.
	noISL := DefaultConfig(units.KW(0.5))
	noISL.OmitISL = true
	base := mustTCO(t, noISL)
	with := DefaultConfig(units.KW(0.5))
	with.ISLRate = units.GbpsOf(25)
	inc := mustTCO(t, with)/base - 1
	if inc >= 0.30 || inc < 0.15 {
		t.Errorf("500 W + 25 Gbit/s TCO increase = %.3f, want [0.15,0.30)", inc)
	}
	for _, kw := range []float64{4, 10} {
		b := DefaultConfig(units.KW(kw))
		b.OmitISL = true
		base := mustTCO(t, b)
		w := DefaultConfig(units.KW(kw))
		w.ISLRate = units.DataRate(kw * 1000 * 2597e3 * 16) // lightest app saturation
		inc := mustTCO(t, w)/base - 1
		if inc >= 0.26 {
			t.Errorf("%.0f kW saturation ISL TCO increase = %.3f, want <0.26", kw, inc)
		}
	}
}

func TestFig9ArchitectureBarelyMovesTCO(t *testing.T) {
	// Paper Fig. 9: "TCO effects are minimal due to relatively low cost of
	// the compute" across 3090/A100/H100 at the same power budget.
	tcos := map[string]float64{}
	for _, dev := range []hardware.Device{hardware.RTX3090, hardware.A100, hardware.H100} {
		c := DefaultConfig(units.KW(4))
		c.Server = hardware.DefaultServer(dev)
		tcos[dev.Name] = mustTCO(t, c)
	}
	base := tcos["RTX 3090"]
	for name, v := range tcos {
		if diff := math.Abs(v-base) / base; diff > 0.03 {
			t.Errorf("%s TCO differs from 3090 by %.3f, want <0.03", name, diff)
		}
	}
	// But the expensive parts do cost *something* more.
	if !(tcos["H100"] > tcos["A100"] && tcos["A100"] > tcos["RTX 3090"]) {
		t.Error("hardware price ordering should still show up in TCO")
	}
}

func TestCompressionReducesTCO(t *testing.T) {
	plain := mustTCO(t, DefaultConfig(units.KW(4)))
	for _, alg := range compress.All() {
		c := DefaultConfig(units.KW(4))
		c.Compression = alg
		v := mustTCO(t, c)
		if v >= plain {
			t.Errorf("%s must reduce TCO (%.3g vs %.3g)", alg.Name, v, plain)
		}
	}
	// Stronger compression saves more.
	cc := DefaultConfig(units.KW(4))
	cc.Compression = compress.CCSDS
	nn := DefaultConfig(units.KW(4))
	nn.Compression = compress.Neural
	if mustTCO(t, nn) >= mustTCO(t, cc) {
		t.Error("neural compression must save more than CCSDS")
	}
}

func TestOmitISL(t *testing.T) {
	c := DefaultConfig(units.KW(4))
	c.OmitISL = true
	d, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d.ISL.Heads != 0 || d.ISL.Power != 0 || d.InstalledISLRate != 0 {
		t.Errorf("OmitISL must produce no link hardware: %+v", d.ISL)
	}
}

func TestDesignISLRate(t *testing.T) {
	if DesignISLRate(0) != 0 {
		t.Error("zero budget → zero rate")
	}
	r := DesignISLRate(units.KW(4))
	if g := r.Gigabits(); g < 20 || g > 35 {
		t.Errorf("design rate at 4 kW = %.1f Gbit/s, want ≈26", g)
	}
	// Linear in budget.
	if !units.ApproxEqual(float64(DesignISLRate(units.KW(8))), 2*float64(r), 1e-12) {
		t.Error("design rate must be linear in budget")
	}
}

func TestEOLPowerComposition(t *testing.T) {
	d, err := DefaultConfig(units.KW(4)).Build()
	if err != nil {
		t.Fatal(err)
	}
	want := d.ComputePower + d.ISL.Power + d.Config.AvionicsPower + d.ADCS.Power + d.Thermal.PumpPower
	if !units.ApproxEqual(float64(d.EOLPower), float64(want), 1e-9) {
		t.Errorf("EOL power = %v, want %v", d.EOLPower, want)
	}
	// The EPS was sized for exactly that load.
	if d.EPS.EOLLoad != d.EOLPower {
		t.Error("EPS must be sized for the EOL load")
	}
}

func TestDriversMatchDesign(t *testing.T) {
	d, err := DefaultConfig(units.KW(4)).Build()
	if err != nil {
		t.Fatal(err)
	}
	dr := d.Drivers
	if dr.DryMass != float64(d.DryMass) || dr.WetMass != float64(d.WetMass) {
		t.Error("driver masses out of sync")
	}
	if dr.BOLPower != float64(d.EPS.BOLArrayPower) {
		t.Error("driver BOL power out of sync")
	}
	if dr.PumpBOLPower <= 0 || dr.PumpBOLPower >= dr.BOLPower {
		t.Errorf("pump BOL share = %v, want in (0, BOL)", dr.PumpBOLPower)
	}
	if err := dr.Validate(); err != nil {
		t.Errorf("drivers must validate: %v", err)
	}
}

func TestAltCostModelRuns(t *testing.T) {
	c := DefaultConfig(units.KW(4))
	c.CostModel = sscm.Alt()
	b, err := c.Breakdown()
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := DefaultConfig(units.KW(4)).Breakdown()
	// Same physical design, different accounting: totals within 15%.
	if diff := math.Abs(float64(b.TCO()-ref.TCO())) / float64(ref.TCO()); diff > 0.15 {
		t.Errorf("SEER-like total differs by %.2f, want <0.15", diff)
	}
}

func TestMassBreakdownRows(t *testing.T) {
	d, err := DefaultConfig(units.KW(4)).Build()
	if err != nil {
		t.Fatal(err)
	}
	rows := d.MassBreakdown()
	if len(rows) != 10 {
		t.Fatalf("mass budget has %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r.Mass < 0 {
			t.Errorf("%s: negative mass", r.Name)
		}
		if r.Name == "" {
			t.Error("unnamed mass row")
		}
	}
}

func TestPassiveThermalOption(t *testing.T) {
	active := DefaultConfig(units.KW(4))
	passive := DefaultConfig(units.KW(4))
	passive.PassiveThermal = true
	da, err := active.Build()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := passive.Build()
	if err != nil {
		t.Fatal(err)
	}
	if dp.Thermal.PumpPower != 0 {
		t.Error("passive design must have no pump power")
	}
	if dp.Thermal.Area <= da.Thermal.Area {
		t.Error("passive radiator must be larger (T⁴ at the cold plate)")
	}
	if dp.EOLPower >= da.EOLPower {
		t.Error("passive design must draw less power (no pump)")
	}
	// The trade the paper's active design makes: the pump buys a smaller,
	// lighter radiator at the cost of power. Either can win on TCO; both
	// must at least produce a valid costed design.
	if _, err := dp.Cost(); err != nil {
		t.Fatal(err)
	}
}

func TestRTGOption(t *testing.T) {
	rtg := solar.GPHSClass
	c := DefaultConfig(units.KW(0.5))
	c.RTG = &rtg
	d, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d.EPS.BatteryMass != 0 {
		t.Error("RTG design must carry no battery")
	}
	solarTCO := mustTCO(t, DefaultConfig(units.KW(0.5)))
	b, err := d.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if float64(b.TCO()) < 1.5*solarTCO {
		t.Errorf("RTG SµDC (%v) must cost far more than solar (%v) at LEO",
			b.TCO(), units.Dollars(solarTCO))
	}
}

func TestDecodePowerRefinement(t *testing.T) {
	upper := DefaultConfig(units.KW(4))
	upper.Compression = compress.Neural
	refined := upper
	refined.IncludeDecodePower = true
	tUpper := mustTCO(t, upper)
	tRefined := mustTCO(t, refined)
	if tRefined <= tUpper {
		t.Error("charging decode power must raise TCO above the upper-bound analysis")
	}
	// But compression must still pay off overall.
	plain := mustTCO(t, DefaultConfig(units.KW(4)))
	if tRefined >= plain {
		t.Error("neural compression must still win with decode power charged")
	}
	// Decode power is irrelevant without an ISL.
	noISL := refined
	noISL.OmitISL = true
	noISLBase := upper
	noISLBase.OmitISL = true
	if mustTCO(t, noISL) != mustTCO(t, noISLBase) {
		t.Error("decode power must not apply without a link")
	}
}

func TestSweepTCOMatchesSerial(t *testing.T) {
	cfgs := []Config{
		DefaultConfig(units.KW(0.5)),
		DefaultConfig(units.KW(2)),
		DefaultConfig(units.KW(4)),
		DefaultConfig(units.KW(10)),
	}
	got, err := SweepTCO(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("sweep returned %d results for %d configs", len(got), len(cfgs))
	}
	for i, c := range cfgs {
		want, err := c.TCO()
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("config %d: sweep TCO %v != serial TCO %v", i, got[i], want)
		}
	}
	for _, w := range []int{1, 2, 8} {
		prev := par.SetDefaultWorkers(w)
		again, err := SweepTCO(cfgs)
		par.SetDefaultWorkers(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range got {
			if again[i] != got[i] {
				t.Errorf("workers=%d: result %d differs", w, i)
			}
		}
	}
}

func TestSweepTCOPropagatesErrors(t *testing.T) {
	bad := DefaultConfig(units.KW(4))
	bad.ComputePower = -1
	if _, err := SweepTCO([]Config{DefaultConfig(units.KW(4)), bad}); err == nil {
		t.Error("invalid config in sweep must error")
	}
}
