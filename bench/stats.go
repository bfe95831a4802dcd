package main

import (
	"math"
	"sort"
	"time"
)

// minP90Samples is the smallest sample count whose 90th percentile has
// at least ten samples beyond it.
const minP90Samples = 100

// normalize converts a raw host time to reference-host time given the
// calibration median of the block that measured it.
func normalize(raw, blockCalibMS float64) float64 {
	return raw * calibRefMS / blockCalibMS
}

// quantile is the linearly interpolated q-quantile of xs (0 for an
// empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p90 returns the 90th percentile of xs, and false when there are too
// few samples for it to mean anything.
func p90(xs []float64) (float64, bool) {
	if len(xs) < minP90Samples {
		return 0, false
	}
	return quantile(xs, 0.9), true
}

// iqr is the distance between the first and third quartiles.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
