// Package wright implements Wright's-law experience curves (paper §VI):
// Cₙ = C₁ · n^(log₂ b), where b is the progress ratio — every doubling of
// cumulative production multiplies unit cost by b. Aerospace manufacturing
// typically achieves b ∈ [0.7, 0.8].
//
// On top of the curve itself the package provides the paper's
// distributed-vs-monolithic optimizer (Figure 23): for a fixed aggregate
// compute target, find the constellation size N whose total cost (NRE of
// the smaller design + learning-discounted recurring cost of N units)
// is minimal.
package wright

import (
	"errors"
	"fmt"
	"math"

	"sudc/internal/units"
)

// Curve is a Wright's-law experience curve.
type Curve struct {
	// ProgressRatio b ∈ (0, 1]: unit-cost multiplier per production
	// doubling. b = 1 means no learning.
	ProgressRatio float64
}

// DefaultAerospace is the paper's Figure 22 assumption, b = 0.75.
var DefaultAerospace = Curve{ProgressRatio: 0.75}

// Validate reports an error for non-physical progress ratios.
func (c Curve) Validate() error {
	if c.ProgressRatio <= 0 || c.ProgressRatio > 1 {
		return fmt.Errorf("wright: progress ratio %v out of (0,1]", c.ProgressRatio)
	}
	return nil
}

// exponent returns log₂(b) ≤ 0.
func (c Curve) exponent() float64 { return math.Log2(c.ProgressRatio) }

// UnitCost returns the cost of the nth unit (n ≥ 1) given first-unit
// recurring cost c1.
func (c Curve) UnitCost(c1 units.Dollars, n int) (units.Dollars, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if n < 1 {
		return 0, errors.New("wright: unit index must be ≥ 1")
	}
	return units.Dollars(float64(c1) * math.Pow(float64(n), c.exponent())), nil
}

// CumulativeCost returns the cost of producing units 1..n:
// c1 · Σ_{i=1..n} i^(log₂ b).
func (c Curve) CumulativeCost(c1 units.Dollars, n int) (units.Dollars, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, errors.New("wright: negative unit count")
	}
	var sum float64
	e := c.exponent()
	for i := 1; i <= n; i++ {
		sum += math.Pow(float64(i), e)
	}
	return units.Dollars(float64(c1) * sum), nil
}

// CostFn gives the NRE and single-unit RE of a satellite design sized to
// one per-satellite compute power. The distributed-vs-monolithic optimizer
// calls it once per candidate constellation size.
type CostFn func(perSatellite units.Power) (nre, re units.Dollars, err error)

// Point is one candidate in a distributed-vs-monolithic sweep.
type Point struct {
	// Satellites is the constellation size N.
	Satellites int
	// PerSatellite is the compute power of each satellite.
	PerSatellite units.Power
	// NRE is the (single) design cost for the class.
	NRE units.Dollars
	// RE is the learning-discounted recurring cost of all N units.
	RE units.Dollars
	// Total = NRE + RE.
	Total units.Dollars
}

// Sweep evaluates constellation sizes 1..maxN for a fixed aggregate
// compute target, applying the learning curve to recurring costs. The NRE
// is paid once per design (amortized across the constellation, as in the
// paper's Figure 23 analysis).
func (c Curve) Sweep(target units.Power, maxN int, cost CostFn) ([]Point, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if target <= 0 {
		return nil, errors.New("wright: non-positive power target")
	}
	if maxN < 1 {
		return nil, errors.New("wright: need at least one constellation size")
	}
	if cost == nil {
		return nil, errors.New("wright: nil cost function")
	}
	out := make([]Point, 0, maxN)
	for n := 1; n <= maxN; n++ {
		per := units.Power(float64(target) / float64(n))
		nre, re, err := cost(per)
		if err != nil {
			return nil, fmt.Errorf("wright: costing %d×%v: %w", n, per, err)
		}
		cum, err := c.CumulativeCost(re, n)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{
			Satellites:   n,
			PerSatellite: per,
			NRE:          nre,
			RE:           cum,
			Total:        nre + cum,
		})
	}
	return out, nil
}

// Best returns the sweep point with minimal total cost.
func Best(points []Point) (Point, error) {
	if len(points) == 0 {
		return Point{}, errors.New("wright: empty sweep")
	}
	best := points[0]
	for _, p := range points[1:] {
		if p.Total < best.Total {
			best = p
		}
	}
	return best, nil
}
