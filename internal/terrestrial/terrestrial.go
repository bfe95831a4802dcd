// Package terrestrial models terrestrial datacenter TCO breakdowns — the
// comparison baseline for the paper's Figures 11, 15 and 16. Unlike a
// SµDC, a terrestrial datacenter's TCO is dominated by server capital and
// facilities, not power: "server costs range from 57% to 72% of TCO, while
// power costs are only 7% to 13%" (paper §IV-B, after Hardy et al. [30],
// Barroso et al. [8], and Cui et al. [15]).
package terrestrial

import (
	"errors"
	"fmt"
	"math"
)

// Category is a terrestrial TCO cost category (Figure 11's legend).
type Category int

// Categories in reporting order.
const (
	Servers Category = iota
	Networking
	PowerEnergy
	PowerDistribution
	Infrastructure
	Other
)

var categoryNames = [...]string{
	"servers", "networking", "power-energy", "power-distribution",
	"infrastructure", "other",
}

func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Model is a normalized terrestrial TCO breakdown (shares sum to 1).
type Model struct {
	Name   string
	Shares map[Category]float64
}

// The three terrestrial models the paper compares against.
var (
	// Hardy is the analytical framework of Hardy et al. [30] — the TCO
	// breakdown the paper's Figure 15/16 scaling study is built on.
	Hardy = Model{
		Name: "Hardy et al.",
		Shares: map[Category]float64{
			Servers: 0.57, Networking: 0.08, PowerEnergy: 0.07,
			PowerDistribution: 0.12, Infrastructure: 0.10, Other: 0.06,
		},
	}
	// Barroso is the warehouse-scale-computer breakdown of Barroso &
	// Hölzle [8]: server-capital heavy, cheap hyperscale power.
	Barroso = Model{
		Name: "Barroso & Hölzle",
		Shares: map[Category]float64{
			Servers: 0.72, Networking: 0.05, PowerEnergy: 0.07,
			PowerDistribution: 0.08, Infrastructure: 0.06, Other: 0.02,
		},
	}
	// Cui is the thermally-focused model of Cui et al. [15].
	Cui = Model{
		Name: "Cui et al.",
		Shares: map[Category]float64{
			Servers: 0.62, Networking: 0.07, PowerEnergy: 0.10,
			PowerDistribution: 0.12, Infrastructure: 0.06, Other: 0.03,
		},
	}
)

// Models returns the three terrestrial models in the paper's order.
func Models() []Model { return []Model{Hardy, Barroso, Cui} }

// Validate checks that shares are a distribution.
func (m Model) Validate() error {
	var sum float64
	for _, s := range m.Shares {
		if s < 0 {
			return fmt.Errorf("terrestrial: %s: negative share", m.Name)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("terrestrial: %s: shares sum to %v, want 1", m.Name, sum)
	}
	return nil
}

// Share returns the share of a category (0 if absent).
func (m Model) Share(c Category) float64 { return m.Shares[c] }

// ScalingMode selects which cost categories shrink as compute hardware
// energy efficiency improves (Figure 15's three on-Earth curves).
type ScalingMode int

// Scaling modes.
const (
	// DefaultScaling scales only the energy bill.
	DefaultScaling ScalingMode = iota
	// HPEScaling also scales power-distribution hardware sized for
	// high-performance server configurations (half of it).
	HPEScaling
	// LPOScaling scales energy and the full power-distribution plant for
	// low-power high-density configurations.
	LPOScaling
)

func (s ScalingMode) String() string {
	switch s {
	case DefaultScaling:
		return "On-Earth (Default)"
	case HPEScaling:
		return "On-Earth (HPE)"
	case LPOScaling:
		return "On-Earth (LPO)"
	default:
		return fmt.Sprintf("ScalingMode(%d)", int(s))
	}
}

// scalingShare is the fraction of TCO that shrinks with 1/efficiency.
func (m Model) scalingShare(mode ScalingMode) float64 {
	switch mode {
	case HPEScaling:
		return m.Share(PowerEnergy) + 0.5*m.Share(PowerDistribution)
	case LPOScaling:
		return m.Share(PowerEnergy) + m.Share(PowerDistribution) + 0.5*m.Share(Infrastructure)
	default:
		return m.Share(PowerEnergy)
	}
}

// PriceScaling models how compute hardware price responds to an energy
// efficiency improvement (Figure 16: "computer hardware which is 100× more
// energy efficient than baseline costs 3× more money").
type PriceScaling int

// Price scaling regimes.
const (
	// ConstantPrice holds hardware cost invariant (Figure 15).
	ConstantPrice PriceScaling = iota
	// LogarithmicPrice multiplies hardware cost by 1 + log10(efficiency).
	LogarithmicPrice
)

// PriceMultiplier returns the hardware price multiplier at an efficiency
// scalar e ≥ 1.
func (p PriceScaling) PriceMultiplier(e float64) float64 {
	if e < 1 {
		e = 1
	}
	if p == LogarithmicPrice {
		return 1 + math.Log10(e)
	}
	return 1
}

// RelativeTCO returns the datacenter TCO at compute-hardware energy
// efficiency scalar e (≥1), relative to the e=1 baseline, under the given
// scaling mode and hardware price response.
func (m Model) RelativeTCO(e float64, mode ScalingMode, price PriceScaling) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if e < 1 {
		return 0, errors.New("terrestrial: efficiency scalar must be ≥ 1")
	}
	scaling := m.scalingShare(mode)
	fixed := 1 - scaling - m.Share(Servers)
	return m.Share(Servers)*price.PriceMultiplier(e) + fixed + scaling/e, nil
}
