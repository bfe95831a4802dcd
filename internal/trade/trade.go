// Package trade is a design-space sweep engine over SµDC configurations:
// define dimensions (compute power, lifetime, altitude, ISL capacity, …),
// sweep their cartesian product through the core design+cost model, and
// extract the Pareto front over any set of objectives (TCO, wet mass,
// power). It generalizes the paper's one-dimensional sensitivity figures
// into the multi-dimensional trade studies a mission designer runs.
package trade

import (
	"errors"
	"fmt"

	"sudc/internal/core"
	"sudc/internal/par"
	"sudc/internal/units"
)

// Dimension is one swept axis of the configuration space.
type Dimension struct {
	// Name labels the axis ("compute kW", "lifetime yr").
	Name string
	// Values are the grid points.
	Values []float64
	// Apply writes one value into a configuration.
	Apply func(*core.Config, float64)
}

// Common dimensions.
var (
	// ComputePowerKW sweeps the compute budget.
	ComputePowerKW = func(values ...float64) Dimension {
		return Dimension{
			Name:   "compute kW",
			Values: values,
			Apply:  func(c *core.Config, v float64) { c.ComputePower = units.KW(v) },
		}
	}
	// LifetimeYears sweeps the mission duration.
	LifetimeYears = func(values ...float64) Dimension {
		return Dimension{
			Name:   "lifetime yr",
			Values: values,
			Apply:  func(c *core.Config, v float64) { c.Lifetime = units.Years(v) },
		}
	}
	// AltitudeKM sweeps the orbit altitude.
	AltitudeKM = func(values ...float64) Dimension {
		return Dimension{
			Name:   "altitude km",
			Values: values,
			Apply:  func(c *core.Config, v float64) { c.Orbit.AltitudeM = v * 1e3 },
		}
	}
)

// Validate reports dimension errors.
func (d Dimension) Validate() error {
	if d.Name == "" {
		return errors.New("trade: dimension without name")
	}
	if len(d.Values) == 0 {
		return fmt.Errorf("trade: dimension %q has no values", d.Name)
	}
	if d.Apply == nil {
		return fmt.Errorf("trade: dimension %q has no Apply", d.Name)
	}
	return nil
}

// Point is one evaluated design in the sweep.
type Point struct {
	// Coords are the swept values, keyed by dimension name.
	Coords map[string]float64
	// TCO, WetMass, BOLPower, RadiatorArea are the evaluated metrics.
	TCO          units.Dollars
	WetMass      units.Mass
	BOLPower     units.Power
	RadiatorArea units.Area
}

// Objective extracts a to-be-minimized metric from a point.
type Objective struct {
	Name  string
	Value func(Point) float64
}

// Standard objectives.
var (
	// MinTCO minimizes first-unit total cost of ownership.
	MinTCO = Objective{Name: "TCO", Value: func(p Point) float64 { return float64(p.TCO) }}
	// MaxComputePower maximizes the compute budget (negated for the
	// minimizing front).
	MaxComputePower = Objective{Name: "-compute", Value: func(p Point) float64 { return -p.Coords["compute kW"] }}
)

// Sweep evaluates the cartesian product of the dimensions applied to the
// base configuration. Grid points are independent, so the design+cost
// evaluations run in parallel; results keep odometer (row-major) order.
func Sweep(base core.Config, dims []Dimension) ([]Point, error) {
	if len(dims) == 0 {
		return nil, errors.New("trade: no dimensions")
	}
	total := 1
	for _, d := range dims {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		total *= len(d.Values)
		if total > 100000 {
			return nil, errors.New("trade: sweep larger than 100k points")
		}
	}

	// Enumerate the grid first (cheap), then fan the evaluations out.
	combos := make([][]float64, 0, total)
	idx := make([]int, len(dims))
	for {
		vals := make([]float64, len(dims))
		for di, d := range dims {
			vals[di] = d.Values[idx[di]]
		}
		combos = append(combos, vals)

		// Advance the odometer.
		k := len(dims) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(dims[k].Values) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}

	return par.MapErr(combos, func(vals []float64) (Point, error) {
		cfg := base
		coords := make(map[string]float64, len(dims))
		for di, d := range dims {
			d.Apply(&cfg, vals[di])
			coords[d.Name] = vals[di]
		}
		d, err := cfg.Build()
		if err != nil {
			return Point{}, fmt.Errorf("trade: at %v: %w", coords, err)
		}
		b, err := d.Cost()
		if err != nil {
			return Point{}, fmt.Errorf("trade: at %v: %w", coords, err)
		}
		return Point{
			Coords:       coords,
			TCO:          b.TCO(),
			WetMass:      d.WetMass,
			BOLPower:     units.Power(d.Drivers.BOLPower),
			RadiatorArea: d.Thermal.Area,
		}, nil
	})
}

// dominates reports whether a is at least as good as b on every objective
// and strictly better on at least one.
func dominates(a, b Point, objs []Objective) bool {
	strictly := false
	for _, o := range objs {
		va, vb := o.Value(a), o.Value(b)
		if va > vb {
			return false
		}
		if va < vb {
			strictly = true
		}
	}
	return strictly
}

// ParetoFront returns the non-dominated points under the (minimizing)
// objectives, in the order they appear in points.
func ParetoFront(points []Point, objs []Objective) ([]Point, error) {
	if len(objs) < 1 {
		return nil, errors.New("trade: need at least one objective")
	}
	if len(points) == 0 {
		return nil, errors.New("trade: no points")
	}
	var front []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if dominates(q, p, objs) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	return front, nil
}

// Best returns the sweep point minimizing a single objective.
func Best(points []Point, obj Objective) (Point, error) {
	if len(points) == 0 {
		return Point{}, errors.New("trade: no points")
	}
	best := points[0]
	for _, p := range points[1:] {
		if obj.Value(p) < obj.Value(best) {
			best = p
		}
	}
	return best, nil
}
