// Package compress models the image-compression algorithms the paper
// evaluates for shrinking ISL capacity requirements (Figure 10): CCSDS
// lossless coding, lossless JPEG 2000, and a high-PSNR quasi-lossless
// neural compressor [7]. Ratios are calibrated so the paper's reported TCO
// savings reproduce (≈3/5/8 % today; 11.7/20.5/26.5 % asymptotically).
//
// As in the paper, the default accounting excludes decompression power
// ("these are upper bounds on the possible TCO improvements"); the
// DecodeEnergyPerBit field lets callers do the more conservative analysis.
package compress

import (
	"errors"
	"fmt"
	"strings"

	"sudc/internal/units"
)

// Algorithm describes a compression scheme applied to imagery before ISL
// transmission.
type Algorithm struct {
	Name string
	// Ratio is the compression ratio (input bits / output bits), > 1.
	Ratio float64
	// Lossless reports bit-exact reconstruction.
	Lossless bool
	// PSNRdB is reconstruction quality for lossy schemes (0 if lossless).
	PSNRdB float64
	// DecodeEnergyPerBit is the optional decompression energy at the
	// receiver in J per *decoded* bit.
	DecodeEnergyPerBit float64
}

// The paper's three algorithms plus the uncompressed baseline.
var (
	// None is the uncompressed baseline.
	None = Algorithm{Name: "uncompressed", Ratio: 1, Lossless: true}
	// CCSDS is the CCSDS 121.0 lossless coder, "a standard lossless
	// compression algorithm for use in space".
	CCSDS = Algorithm{Name: "CCSDS", Ratio: 1.5, Lossless: true,
		DecodeEnergyPerBit: 2e-10}
	// JPEG2000 is lossless JPEG 2000.
	JPEG2000 = Algorithm{Name: "lossless JPEG2000", Ratio: 2.38, Lossless: true,
		DecodeEnergyPerBit: 8e-10}
	// Neural is the quasi-lossless neural compressor of Bacchus et al. [7].
	Neural = Algorithm{Name: "neural quasi-lossless", Ratio: 4.0, Lossless: false,
		PSNRdB: 55, DecodeEnergyPerBit: 5e-9}
)

// All returns the three paper algorithms, weakest ratio first.
func All() []Algorithm { return []Algorithm{CCSDS, JPEG2000, Neural} }

// ByName finds an algorithm by a flag-friendly short name — "none",
// "ccsds", "jpeg2000", "neural" — or its full display name.
func ByName(name string) (Algorithm, error) {
	switch strings.ToLower(name) {
	case "", "none", "uncompressed":
		return None, nil
	case "ccsds":
		return CCSDS, nil
	case "jpeg2000", "lossless jpeg2000":
		return JPEG2000, nil
	case "neural", "neural quasi-lossless":
		return Neural, nil
	}
	return Algorithm{}, fmt.Errorf("compress: unknown algorithm %q", name)
}

// Validate reports parameter errors.
func (a Algorithm) Validate() error {
	if a.Name == "" {
		return errors.New("compress: algorithm without name")
	}
	if a.Ratio < 1 {
		return fmt.Errorf("compress: %s: ratio %v < 1", a.Name, a.Ratio)
	}
	if a.DecodeEnergyPerBit < 0 {
		return fmt.Errorf("compress: %s: negative decode energy", a.Name)
	}
	return nil
}

// CompressedRate returns the ISL rate needed to carry raw traffic of the
// given rate after compression.
func (a Algorithm) CompressedRate(raw units.DataRate) (units.DataRate, error) {
	if err := a.Validate(); err != nil {
		return 0, err
	}
	if raw < 0 {
		return 0, errors.New("compress: negative raw rate")
	}
	return units.DataRate(float64(raw) / a.Ratio), nil
}

// DecodePower returns the receiver-side decompression power when carrying
// raw traffic of the given rate (decoded bits per second × J/bit). Like
// CompressedRate it rejects invalid inputs, but since decode power feeds
// additively into TCO sums it clamps to zero instead of erroring: a
// negative rate or malformed algorithm contributes no power rather than
// a negative term that would silently *reduce* downstream cost.
func (a Algorithm) DecodePower(raw units.DataRate) units.Power {
	if a.Validate() != nil || raw < 0 {
		return 0
	}
	return units.Power(float64(raw) * a.DecodeEnergyPerBit)
}
