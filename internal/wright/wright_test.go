package wright

import (
	"math"
	"testing"
	"testing/quick"

	"sudc/internal/units"
)

func TestPaperWorkedExample(t *testing.T) {
	// Paper §VI-A: "if C₁ = $1, and b = 0.9, then C₂ = $0.90, and
	// C₄ = $0.81".
	c := Curve{ProgressRatio: 0.9}
	u2, err := c.UnitCost(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(float64(u2), 0.90, 1e-12) {
		t.Errorf("C₂ = %v, want 0.90", u2)
	}
	u4, _ := c.UnitCost(1, 4)
	if !units.ApproxEqual(float64(u4), 0.81, 1e-12) {
		t.Errorf("C₄ = %v, want 0.81", u4)
	}
}

func TestHundredthUnitHalvesCost(t *testing.T) {
	// Paper Fig. 22: at b = 0.75, "By the time the 100th satellite is
	// manufactured, cost has decreased by over 50%."
	u100, err := DefaultAerospace.UnitCost(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if float64(u100) >= 0.5 {
		t.Errorf("C₁₀₀/C₁ = %v, want < 0.5", u100)
	}
}

func TestValidate(t *testing.T) {
	for _, b := range []float64{0, -0.5, 1.1} {
		if err := (Curve{ProgressRatio: b}).Validate(); err == nil {
			t.Errorf("b = %v must be rejected", b)
		}
	}
	if err := (Curve{ProgressRatio: 1}).Validate(); err != nil {
		t.Errorf("b = 1 (no learning) is legal: %v", err)
	}
}

func TestUnitCostErrors(t *testing.T) {
	if _, err := DefaultAerospace.UnitCost(1, 0); err == nil {
		t.Error("unit 0 must error")
	}
	if _, err := (Curve{}).UnitCost(1, 1); err == nil {
		t.Error("invalid curve must error")
	}
}

func TestNoLearningIsFlat(t *testing.T) {
	c := Curve{ProgressRatio: 1}
	for _, n := range []int{1, 2, 10, 100} {
		u, err := c.UnitCost(42, n)
		if err != nil {
			t.Fatal(err)
		}
		if u != 42 {
			t.Errorf("b=1 unit %d cost %v, want 42", n, u)
		}
	}
	cum, _ := c.CumulativeCost(42, 10)
	if cum != 420 {
		t.Errorf("b=1 cumulative(10) = %v, want 420", cum)
	}
}

func TestCumulativeCost(t *testing.T) {
	// b = 0.9: Σ of first 2 units = 1 + 0.9 = 1.9.
	c := Curve{ProgressRatio: 0.9}
	cum, err := c.CumulativeCost(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(float64(cum), 1.9, 1e-12) {
		t.Errorf("cumulative(2) = %v, want 1.9", cum)
	}
	zero, _ := c.CumulativeCost(1, 0)
	if zero != 0 {
		t.Errorf("cumulative(0) = %v, want 0", zero)
	}
	if _, err := c.CumulativeCost(1, -1); err == nil {
		t.Error("negative count must error")
	}
}

// linearNRECost is a toy cost model: NRE = 40·(P/32kW)^0.5 M$,
// RE = 20·(P/32kW)^0.45 + 3 M$ — sublinear with a fixed per-satellite
// floor, the structure that creates an interior optimum.
func linearNRECost(per units.Power) (units.Dollars, units.Dollars, error) {
	frac := float64(per) / 32000
	nre := units.MUSD(40 * pow(frac, 0.5))
	re := units.MUSD(20*pow(frac, 0.45) + 3)
	return nre, re, nil
}

func pow(x, e float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, e)
}

func TestSweepShape(t *testing.T) {
	pts, err := DefaultAerospace.Sweep(units.KW(32), 8, linearNRECost)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("len = %d", len(pts))
	}
	// N=1 point: NRE + single RE, no learning discount applicable.
	if pts[0].Satellites != 1 {
		t.Error("first point must be monolithic")
	}
	n1, r1, _ := linearNRECost(units.KW(32))
	if !units.ApproxEqual(float64(pts[0].Total), float64(n1+r1), 1e-9) {
		t.Errorf("monolithic total = %v, want %v", pts[0].Total, n1+r1)
	}
	// Per-satellite power divides the target.
	if !units.ApproxEqual(float64(pts[3].PerSatellite), 8000, 1e-9) {
		t.Errorf("N=4 per-satellite = %v, want 8 kW", pts[3].PerSatellite)
	}
}

func TestSweepErrors(t *testing.T) {
	if _, err := DefaultAerospace.Sweep(0, 4, linearNRECost); err == nil {
		t.Error("zero target must error")
	}
	if _, err := DefaultAerospace.Sweep(units.KW(32), 0, linearNRECost); err == nil {
		t.Error("zero maxN must error")
	}
	if _, err := DefaultAerospace.Sweep(units.KW(32), 4, nil); err == nil {
		t.Error("nil cost fn must error")
	}
	if _, err := (Curve{}).Sweep(units.KW(32), 4, linearNRECost); err == nil {
		t.Error("bad curve must error")
	}
}

func TestBest(t *testing.T) {
	pts, _ := DefaultAerospace.Sweep(units.KW(32), 8, linearNRECost)
	best, err := Best(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Total < best.Total {
			t.Error("Best did not find the minimum")
		}
	}
	if _, err := Best(nil); err == nil {
		t.Error("empty sweep must error")
	}
}

func TestStrongLearningFavorsDistribution(t *testing.T) {
	// The Figure 23 shape: aggressive learning (b=0.65) puts the optimum
	// at N > 1; weak learning (b=0.95) keeps monolithic competitive.
	strong, _ := Curve{ProgressRatio: 0.65}.Sweep(units.KW(32), 8, linearNRECost)
	bs, _ := Best(strong)
	if bs.Satellites <= 1 {
		t.Errorf("b=0.65 optimum at N=%d, want >1", bs.Satellites)
	}
	weak, _ := Curve{ProgressRatio: 0.95}.Sweep(units.KW(32), 8, linearNRECost)
	bw, _ := Best(weak)
	if bw.Satellites > bs.Satellites {
		t.Error("weaker learning must not favor more distribution")
	}
}

func TestUnitCostMonotone(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw)%200 + 1
		u1, err1 := DefaultAerospace.UnitCost(1000, n)
		u2, err2 := DefaultAerospace.UnitCost(1000, n+1)
		if err1 != nil || err2 != nil {
			return false
		}
		return u2 < u1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
