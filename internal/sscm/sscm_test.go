package sscm

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sudc/internal/units"
)

// refDrivers approximates the 4 kW reference design the CER bases are
// anchored at.
func refDrivers() Drivers {
	return Drivers{
		BOLPower:            10600,
		PumpBOLPower:        1900,
		ThermalMass:         64,
		StructureMass:       125,
		ADCSMass:            14,
		PropulsionWetMass:   100,
		CDHRateMbps:         130,
		ComputeHardwareCost: 30000,
		ComputeMass:         114,
		ISLHardwareCost:     650000,
		ISLMass:             28,
		DryMass:             650,
		WetMass:             710,
		Lifetime:            5,
	}
}

func TestCEREvalAtReference(t *testing.T) {
	c := CER{Base: units.MUSD(10), RefDriver: 100, Exp: 0.8, FixedShare: 0.3}
	if got := c.Eval(100); !units.ApproxEqual(float64(got), 10e6, 1e-12) {
		t.Errorf("CER at reference = %v, want base", got)
	}
}

func TestCEREvalFixedShareFloor(t *testing.T) {
	c := CER{Base: units.MUSD(10), RefDriver: 100, Exp: 0.8, FixedShare: 0.3}
	if got := c.Eval(0); !units.ApproxEqual(float64(got), 3e6, 1e-12) {
		t.Errorf("CER at zero driver = %v, want fixed share 3M", got)
	}
	if got := c.Eval(-5); !units.ApproxEqual(float64(got), 3e6, 1e-12) {
		t.Errorf("CER clamps negative drivers: got %v", got)
	}
}

func TestCERZeroBase(t *testing.T) {
	if got := (CER{}).Eval(100); got != 0 {
		t.Errorf("zero-base CER = %v, want 0", got)
	}
}

func TestCERDegenerateRefDriver(t *testing.T) {
	c := CER{Base: units.MUSD(5)}
	if got := c.Eval(42); got != units.MUSD(5) {
		t.Errorf("CER without RefDriver = %v, want base", got)
	}
}

func TestCERSublinearScaling(t *testing.T) {
	c := CER{Base: units.MUSD(10), RefDriver: 100, Exp: 0.85, FixedShare: 0.25}
	r := float64(c.Eval(2000)) / float64(c.Eval(100))
	if r >= 20 {
		t.Errorf("20× driver must cost <20×, got %.1f×", r)
	}
	if r <= 1 {
		t.Errorf("bigger driver must cost more, got %.2f×", r)
	}
}

func TestDriversValidate(t *testing.T) {
	good := refDrivers()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Drivers)
	}{
		{"negative power", func(d *Drivers) { d.BOLPower = -1 }},
		{"wet < dry", func(d *Drivers) { d.WetMass = d.DryMass - 1 }},
		{"zero lifetime", func(d *Drivers) { d.Lifetime = 0 }},
		{"pump > total", func(d *Drivers) { d.PumpBOLPower = d.BOLPower + 1 }},
	}
	for _, tt := range tests {
		d := refDrivers()
		tt.mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

func TestEstimateRejectsBadDrivers(t *testing.T) {
	d := refDrivers()
	d.Lifetime = 0
	if _, err := Reference().Estimate(d); err == nil {
		t.Error("expected error")
	}
}

func TestEstimateCoversAllSubsystems(t *testing.T) {
	b, err := Reference().Estimate(refDrivers())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Subsystems() {
		if _, ok := b.Items[s]; !ok {
			t.Errorf("missing subsystem %v", s)
		}
	}
	if len(b.Items) != int(numSubsystems) {
		t.Errorf("have %d items, want %d", len(b.Items), numSubsystems)
	}
}

func TestComputeHardwareUnderOnePercent(t *testing.T) {
	// Paper: "the computer hardware cost of a SµDC is < 1% of TCO".
	b, err := Reference().Estimate(refDrivers())
	if err != nil {
		t.Fatal(err)
	}
	if share := b.Share(PayloadCompute); share >= 0.01 {
		t.Errorf("compute share = %.3f, want < 0.01", share)
	}
}

func TestPowerPlusThermalShare(t *testing.T) {
	// Paper Fig. 3: power + thermal ≈ 34% of cost; and "over a third of
	// TCO is in power and thermal management subsystems" (§IV-B).
	b, err := Reference().Estimate(refDrivers())
	if err != nil {
		t.Fatal(err)
	}
	got := b.Share(Power) + b.Share(Thermal)
	if got < 0.28 || got > 0.40 {
		t.Errorf("power+thermal share = %.3f, want ≈1/3", got)
	}
}

func TestAccountingDifferenceSEERvsSSCM(t *testing.T) {
	// Paper Fig. 3: SEER books active cooling under thermal, SSCM-SµDC
	// under power — but the *sum* agrees within ~3% relative.
	d := refDrivers()
	ref, err := Reference().Estimate(d)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := Alt().Estimate(d)
	if err != nil {
		t.Fatal(err)
	}
	if alt.Share(Thermal) <= ref.Share(Thermal) {
		t.Error("SEER-like must book more cost under thermal")
	}
	if alt.Share(Power) >= ref.Share(Power) {
		t.Error("SEER-like must book less cost under power")
	}
	// "the sum of these two subsystems makes up 34.3% and 33.4% — a percent
	// difference of less than 3%": the share sums agree to a few points.
	sumRef := ref.Share(Power) + ref.Share(Thermal)
	sumAlt := alt.Share(Power) + alt.Share(Thermal)
	if diff := math.Abs(sumRef - sumAlt); diff > 0.035 {
		t.Errorf("power+thermal share sums differ by %.1f points (%.1f%% vs %.1f%%), want <3.5",
			diff*100, sumRef*100, sumAlt*100)
	}
}

func TestNREShare(t *testing.T) {
	// NRE ≈ half of first-unit cost (drives the Fig. 23 distributed-vs-
	// monolithic optimum).
	b, err := Reference().Estimate(refDrivers())
	if err != nil {
		t.Fatal(err)
	}
	tot := b.Total()
	share := float64(tot.NRE) / float64(tot.FirstUnit())
	if share < 0.40 || share > 0.60 {
		t.Errorf("NRE share = %.2f, want ≈0.5", share)
	}
}

func TestLifetimeRaisesCost(t *testing.T) {
	d5 := refDrivers()
	d10 := refDrivers()
	d10.Lifetime = 10
	m := Reference()
	b5, _ := m.Estimate(d5)
	b10, _ := m.Estimate(d10)
	if b10.TCO() <= b5.TCO() {
		t.Error("longer lifetime must cost more (reliability + ops)")
	}
}

func TestLaunchIsPureREAndLinearInWetMass(t *testing.T) {
	d := refDrivers()
	m := Reference()
	b, _ := m.Estimate(d)
	if b.Items[Launch].NRE != 0 {
		t.Error("launch must be pure RE")
	}
	want := float64(m.LaunchPerKg) * d.WetMass
	if got := float64(b.Items[Launch].RE); !units.ApproxEqual(got, want, 1e-12) {
		t.Errorf("launch RE = %v, want %v", got, want)
	}
}

func TestWrapsProportionalToBus(t *testing.T) {
	d := refDrivers()
	m := Reference()
	b, _ := m.Estimate(d)
	var bus Cost
	for _, s := range []Subsystem{Power, Thermal, Structure, ADCS, Propulsion, CDH, TTC, PayloadCompute, FSOComm} {
		bus = bus.Add(b.Items[s])
	}
	wantIAT := float64(bus.RE) * m.IATFraction
	if got := float64(b.Items[IAT].RE); !units.ApproxEqual(got, wantIAT, 1e-9) {
		t.Errorf("IAT RE = %v, want %v", got, wantIAT)
	}
}

func TestCostAlgebra(t *testing.T) {
	a := Cost{NRE: 10, RE: 20}
	b := Cost{NRE: 1, RE: 2}
	if got := a.Add(b); got.NRE != 11 || got.RE != 22 {
		t.Errorf("Add = %+v", got)
	}
	if got := a.Scale(0.5); got.NRE != 5 || got.RE != 10 {
		t.Errorf("Scale = %+v", got)
	}
	if a.FirstUnit() != 30 {
		t.Errorf("FirstUnit = %v", a.FirstUnit())
	}
}

func TestBreakdownShareSumsToOne(t *testing.T) {
	b, _ := Reference().Estimate(refDrivers())
	var sum float64
	for _, s := range Subsystems() {
		sum += b.Share(s)
	}
	if !units.ApproxEqual(sum, 1, 1e-9) {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestBreakdownEmptyShare(t *testing.T) {
	if (Breakdown{}).Share(Power) != 0 {
		t.Error("empty breakdown share must be 0")
	}
}

func TestSortedItemsStable(t *testing.T) {
	b, _ := Reference().Estimate(refDrivers())
	items := b.SortedItems()
	if len(items) != int(numSubsystems) {
		t.Fatalf("len = %d", len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i-1].Subsystem >= items[i].Subsystem {
			t.Error("items not sorted")
		}
	}
}

func TestSubsystemString(t *testing.T) {
	if Power.String() != "power" || Launch.String() != "launch" {
		t.Error("subsystem names wrong")
	}
	if Subsystem(99).String() != "Subsystem(99)" {
		t.Error("unknown subsystem formatting")
	}
}

func TestEstimateMonotoneInBOLPower(t *testing.T) {
	m := Reference()
	f := func(raw uint16) bool {
		d := refDrivers()
		d.BOLPower = 1000 + float64(raw)
		d.PumpBOLPower = 0
		b1, err1 := m.Estimate(d)
		d.BOLPower += 500
		b2, err2 := m.Estimate(d)
		if err1 != nil || err2 != nil {
			return false
		}
		return b2.TCO() > b1.TCO()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTCOEqualsNREPlusRE(t *testing.T) {
	b, _ := Reference().Estimate(refDrivers())
	tot := b.Total()
	if b.TCO() != tot.NRE+tot.RE {
		t.Error("TCO must be NRE + RE")
	}
}

func TestBreakdownJSON(t *testing.T) {
	b, err := Reference().Estimate(refDrivers())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"subsystem":"power"`) {
		t.Errorf("JSON must name subsystems: %s", data[:120])
	}
	var out jsonBreakdown
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.TCO != float64(b.TCO()) || out.NRE+out.RE != out.TCO {
		t.Errorf("JSON totals NRE %v + RE %v, TCO %v; want TCO %v", out.NRE, out.RE, out.TCO, b.TCO())
	}
	if len(out.Items) != len(b.Items) {
		t.Fatalf("JSON has %d items, want %d", len(out.Items), len(b.Items))
	}
	for i, it := range b.SortedItems() {
		if got := out.Items[i]; got.Subsystem != it.Subsystem.String() ||
			got.NRE != float64(it.Cost.NRE) || got.RE != float64(it.Cost.RE) {
			t.Errorf("item %d = %+v, want %v %+v", i, got, it.Subsystem, it.Cost)
		}
	}
}
