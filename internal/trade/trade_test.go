package trade

import (
	"reflect"
	"testing"

	"sudc/internal/core"
	"sudc/internal/par"
	"sudc/internal/units"
)

func base() core.Config { return core.DefaultConfig(units.KW(4)) }

// islGbps sweeps the installed crosslink capacity.
func islGbps(values ...float64) Dimension {
	return Dimension{
		Name:   "isl Gbit/s",
		Values: values,
		Apply:  func(c *core.Config, v float64) { c.ISLRate = units.GbpsOf(v) },
	}
}

func TestDimensionValidate(t *testing.T) {
	good := ComputePowerKW(1, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Dimension{
		{Name: "", Values: []float64{1}, Apply: func(*core.Config, float64) {}},
		{Name: "x", Values: nil, Apply: func(*core.Config, float64) {}},
		{Name: "x", Values: []float64{1}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSweepCartesianProduct(t *testing.T) {
	pts, err := Sweep(base(), []Dimension{
		ComputePowerKW(0.5, 2, 4),
		LifetimeYears(3, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("sweep produced %d points, want 6", len(pts))
	}
	// Every combination present exactly once.
	seen := map[[2]float64]bool{}
	for _, p := range pts {
		key := [2]float64{p.Coords["compute kW"], p.Coords["lifetime yr"]}
		if seen[key] {
			t.Errorf("duplicate point %v", key)
		}
		seen[key] = true
		if p.TCO <= 0 || p.WetMass <= 0 || p.BOLPower <= 0 {
			t.Errorf("point %v has non-positive metrics", key)
		}
	}
	if len(seen) != 6 {
		t.Errorf("only %d distinct combinations", len(seen))
	}
}

func TestSweepMonotoneInPower(t *testing.T) {
	pts, err := Sweep(base(), []Dimension{ComputePowerKW(0.5, 1, 2, 4, 8)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TCO <= pts[i-1].TCO {
			t.Error("TCO must grow along the power axis")
		}
		if pts[i].WetMass <= pts[i-1].WetMass {
			t.Error("mass must grow along the power axis")
		}
	}
}

func TestSweepErrors(t *testing.T) {
	if _, err := Sweep(base(), nil); err == nil {
		t.Error("no dimensions must error")
	}
	if _, err := Sweep(base(), []Dimension{{Name: "x", Values: []float64{1}}}); err == nil {
		t.Error("invalid dimension must error")
	}
	// A value that breaks the config surfaces the build error with coords.
	if _, err := Sweep(base(), []Dimension{ComputePowerKW(0)}); err == nil {
		t.Error("invalid config value must error")
	}
	// Oversized sweeps are rejected up front.
	big := make([]float64, 400)
	for i := range big {
		big[i] = 1 + float64(i)
	}
	if _, err := Sweep(base(), []Dimension{
		ComputePowerKW(big...), LifetimeYears(big[:300]...),
	}); err == nil {
		t.Error("100k+ sweep must be rejected")
	}
}

func TestParetoFrontInvariants(t *testing.T) {
	pts, err := Sweep(base(), []Dimension{
		ComputePowerKW(0.5, 1, 2, 4, 8),
		LifetimeYears(3, 5, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := []Objective{MinTCO, MaxComputePower}
	front, err := ParetoFront(pts, objs)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 || len(front) > len(pts) {
		t.Fatalf("front size %d out of range", len(front))
	}
	// No front point dominates another front point.
	for i, p := range front {
		for j, q := range front {
			if i != j && dominates(p, q, objs) {
				t.Errorf("front point %v dominates front point %v", p.Coords, q.Coords)
			}
		}
	}
	// Every non-front point is dominated by some front point.
	inFront := func(p Point) bool {
		for _, q := range front {
			if &q != &p && q.TCO == p.TCO && q.WetMass == p.WetMass {
				return true
			}
		}
		return false
	}
	for _, p := range pts {
		if inFront(p) {
			continue
		}
		dominated := false
		for _, q := range front {
			if dominates(q, p, objs) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("non-front point %v is not dominated", p.Coords)
		}
	}
	// With TCO-vs-compute objectives, each power level's cheapest lifetime
	// is on the front: expect one point per power value.
	if len(front) != 5 {
		t.Errorf("front has %d points, want one per power level (5)", len(front))
	}
}

func TestParetoErrors(t *testing.T) {
	if _, err := ParetoFront(nil, []Objective{MinTCO}); err == nil {
		t.Error("no points must error")
	}
	if _, err := ParetoFront([]Point{{}}, nil); err == nil {
		t.Error("no objectives must error")
	}
}

func TestBest(t *testing.T) {
	pts, err := Sweep(base(), []Dimension{ComputePowerKW(0.5, 2, 8)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Best(pts, MinTCO)
	if err != nil {
		t.Fatal(err)
	}
	if b.Coords["compute kW"] != 0.5 {
		t.Errorf("cheapest point at %v kW, want 0.5", b.Coords["compute kW"])
	}
	if _, err := Best(nil, MinTCO); err == nil {
		t.Error("no points must error")
	}
}

func TestAltitudeDimension(t *testing.T) {
	pts, err := Sweep(base(), []Dimension{AltitudeKM(400, 550, 800)})
	if err != nil {
		t.Fatal(err)
	}
	// Lower orbits fight more drag: more propellant, more TCO, all else equal.
	if pts[0].TCO <= pts[2].TCO {
		t.Error("a 400 km orbit must cost more than 800 km (drag make-up)")
	}
}

func TestISLDimension(t *testing.T) {
	pts, err := Sweep(base(), []Dimension{islGbps(5, 50, 200)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TCO <= pts[i-1].TCO {
			t.Error("TCO must grow with installed ISL capacity")
		}
	}
}

func TestSweepInvariantUnderWorkerCount(t *testing.T) {
	dims := []Dimension{
		ComputePowerKW(0.5, 2, 4, 8),
		LifetimeYears(3, 5, 10),
		islGbps(10, 50),
	}
	ref, err := Sweep(base(), dims)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		prev := par.SetDefaultWorkers(w)
		pts, err := Sweep(base(), dims)
		par.SetDefaultWorkers(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(ref, pts) {
			t.Errorf("workers=%d: sweep points differ from default-worker run", w)
		}
	}
}

func TestSweepErrorIsDeterministic(t *testing.T) {
	// A dimension that drives the design infeasible partway through the
	// grid must cancel the sweep and surface the failing coordinates.
	dims := []Dimension{ComputePowerKW(4, -1, -2)}
	for _, w := range []int{1, 4} {
		prev := par.SetDefaultWorkers(w)
		_, err := Sweep(base(), dims)
		par.SetDefaultWorkers(prev)
		if err == nil {
			t.Fatalf("workers=%d: infeasible point must error", w)
		}
	}
}
