// Package fso models the free-space-optics inter-satellite-link (ISL)
// subsystem of a SµDC: aggregate link power, mass and hardware cost as a
// function of installed capacity, the optical-head catalog (anchored on
// published commercial terminals, per paper §II), and the C&DH data-rate
// downscaling the paper applies before feeding SSCM's RF-era cost
// regressions ("we first downscale the FSO data rate by the bandwidth
// ratio between FSO and X-band RF communications — failure to do this
// results in unreasonably high C&DH cost estimates").
//
// Aggregate link power/mass/cost follow a saturating law
//
//	X(R) = X_peak · (1 − e^(−R/R₀))
//
// — near-linear below the saturation rate R₀ and flattening above it as
// wavelength multiplexing and shared pointing infrastructure amortize
// (the economies the paper points to via Tbit/s DP-QPSK crosslinks [70]).
// This is the form that reproduces the paper's communication results
// simultaneously: 25 Gbit/s costing just under 30 % of a 500 W SµDC's TCO
// (Fig. 7) while full lightest-app capacity on 4–10 kW SµDCs stays under
// 26 %, and the compression/collaborative-filtering savings of
// Figs. 10 & 21.
package fso

import (
	"errors"
	"fmt"
	"math"

	"sudc/internal/units"
)

// Link describes an ISL subsystem technology.
type Link struct {
	Name string
	// HeadRate is the capacity of one optical head; heads are ganged for
	// larger aggregates (reported in Design.Heads).
	HeadRate units.DataRate
	// SaturationRate is R₀ of the saturating cost law: capacity below R₀
	// prices near-linearly, capacity above it comes at steep discount.
	SaturationRate units.DataRate
	// PeakPower, PeakMass, PeakCost are the asymptotic subsystem totals at
	// R ≫ R₀.
	PeakPower units.Power
	PeakMass  units.Mass
	PeakCost  units.Dollars
	// Regime is the link class ("LEO-LEO", "LEO-GEO").
	Regime string
}

// Catalog, anchored on commercial optical crosslink classes (CONDOR Mk3
// class heads for LEO-LEO [58]).
var (
	// CondorClass is the LEO-LEO crosslink subsystem used by the paper's
	// reference designs.
	CondorClass = Link{
		Name:           "CONDOR Mk3 class",
		HeadRate:       units.GbpsOf(100),
		SaturationRate: units.GbpsOf(27),
		PeakPower:      560,
		PeakMass:       50,
		PeakCost:       1.3e6,
		Regime:         "LEO-LEO",
	}
	// GEORelayClass is a longer-haul LEO-GEO/MEO subsystem: bigger
	// apertures, more power per bit, earlier saturation.
	GEORelayClass = Link{
		Name:           "LEO-GEO relay class",
		HeadRate:       units.GbpsOf(10),
		SaturationRate: units.GbpsOf(8),
		PeakPower:      1400,
		PeakMass:       150,
		PeakCost:       6e6,
		Regime:         "LEO-GEO",
	}
)

// XBandReferenceRate is the X-band RF downlink capacity SSCM's C&DH cost
// regressions were fit against (hundreds of Mbit/s class).
const XBandReferenceRate = 500 * units.Mbps

// XBandEquivalent downscales an FSO data rate by the FSO-to-X-band
// bandwidth ratio of the link's optical heads, so the result can be fed to
// RF-era C&DH CERs. A link running at one head's full rate maps to the
// X-band reference rate.
func XBandEquivalent(l Link, rate units.DataRate) units.DataRate {
	if l.HeadRate <= 0 || rate <= 0 {
		return 0
	}
	ratio := float64(l.HeadRate) / float64(XBandReferenceRate)
	return units.DataRate(float64(rate) / ratio)
}

// Validate reports parameter errors.
func (l Link) Validate() error {
	if l.HeadRate <= 0 {
		return fmt.Errorf("fso: link %q has no head capacity", l.Name)
	}
	if l.SaturationRate <= 0 {
		return fmt.Errorf("fso: link %q has no saturation rate", l.Name)
	}
	if l.PeakPower <= 0 || l.PeakMass <= 0 || l.PeakCost <= 0 {
		return fmt.Errorf("fso: link %q has non-positive peak figures", l.Name)
	}
	return nil
}

// saturation returns 1 − e^(−R/R₀) ∈ [0, 1).
func (l Link) saturation(rate units.DataRate) float64 {
	return 1 - math.Exp(-float64(rate)/float64(l.SaturationRate))
}

// Design is a sized ISL subsystem.
type Design struct {
	Link Link
	// Rate is the installed aggregate capacity.
	Rate units.DataRate
	// Heads is the number of optical heads installed.
	Heads int
	// Mass, Power, HardwareCost are the subsystem totals under the
	// saturating law.
	Mass         units.Mass
	Power        units.Power
	HardwareCost units.Dollars
}

// Size designs the ISL subsystem for the required aggregate rate. A zero
// rate returns an empty design (no ISL).
func Size(l Link, rate units.DataRate) (Design, error) {
	if rate < 0 {
		return Design{}, errors.New("fso: negative data rate")
	}
	if rate == 0 {
		return Design{Link: l}, nil
	}
	if err := l.Validate(); err != nil {
		return Design{}, err
	}
	s := l.saturation(rate)
	return Design{
		Link:         l,
		Rate:         rate,
		Heads:        int(math.Ceil(float64(rate) / float64(l.HeadRate))),
		Mass:         units.Mass(float64(l.PeakMass) * s),
		Power:        units.Power(float64(l.PeakPower) * s),
		HardwareCost: units.Dollars(float64(l.PeakCost) * s),
	}, nil
}
