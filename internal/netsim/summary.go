package netsim

import (
	"math/big"
	"time"

	"sudc/internal/placement"
)

// summarizeLatency fills the run's latency statistics from its samples:
// all holds every completed frame's end-to-end latency, and tiers the
// same samples split by placement tier (all empty without placement).
// It is the one summary of every run: a one-cell run passes its cell's
// samples, a multi-cell run the cells' samples concatenated. It runs in
// O(n) and reorders the samples; no result depends on their order.
//
//   - Each mean is the correctly rounded sum of the samples (exactSum),
//     divided by the count: a correctly rounded mean, independent of
//     sample order.
//   - P95 is the sorted sample's element ⌊0.95·n⌋, found by selectKth.
//   - Each tier's P99 interpolates linearly between the sorted sample's
//     elements ⌊0.99·(n−1)⌋ and the one after it (latency.Quantile's
//     definition), found by selectKth and one scan for the minimum of
//     the elements above it.
func summarizeLatency(stats *Stats, all []float64, tiers *[placement.NumTiers][]float64) {
	if n := len(all); n > 0 {
		stats.MeanLatency = time.Duration(exactSum(all) / float64(n) * float64(time.Second))
		stats.P95Latency = time.Duration(selectKth(all, int(float64(n)*0.95)) * float64(time.Second))
	}
	for t, v := range tiers {
		if n := len(v); n > 0 {
			stats.TierMeanLatency[t] = time.Duration(exactSum(v) / float64(n) * float64(time.Second))
			stats.TierP99Latency[t] = time.Duration(quantile99(v) * float64(time.Second))
		}
	}
}

// quantile99 returns the 0.99 quantile of the non-empty v by linear
// interpolation between order statistics, reordering v: bit for bit
// what latency.Quantile(v, 0.99) returns once v is sorted.
func quantile99(v []float64) float64 {
	pos := 0.99 * float64(len(v)-1)
	lo := int(pos)
	a := selectKth(v, lo)
	if lo >= len(v)-1 {
		return a
	}
	// selectKth leaves every element above position lo at least a, so
	// the next order statistic is the least of them.
	b := v[lo+1]
	for _, x := range v[lo+2:] {
		b = min(b, x)
	}
	return a + (pos-float64(lo))*(b-a)
}

// maxPartials bounds exactSum's stack array of partial sums. Latency
// samples need two or three; the array only runs out on sums spanning
// hundreds of binades, which take the big.Float path.
const maxPartials = 32

// exactSum returns the sum of v correctly rounded to float64 (round
// half to even): the exact real sum, rounded once. The result therefore
// does not depend on the order of v.
//
// It is Shewchuk's adaptive-precision summation as Python's math.fsum
// runs it: the running sum is kept exactly as a short list of
// non-overlapping partials of increasing magnitude, each sample added
// by a chain of error-free two-sums (Knuth's, which needs no magnitude
// test), and the partials are rounded to one float64 at the end, with
// math.fsum's half-even correction across partials. The partials live
// in a fixed stack array, so the sum allocates nothing. A sample set
// that overflows the array or the float64 range falls back to an exact
// big.Float sum; one holding an infinity or NaN sums naively, whose
// result is then ±Inf or NaN.
func exactSum(v []float64) float64 {
	var p [maxPartials]float64
	n := 0
	for _, x := range v {
		if x-x != 0 {
			return naiveSum(v)
		}
		i := 0
		for _, y := range p[:n] {
			hi := x + y
			b := hi - x
			lo := (x - (hi - b)) + (y - b)
			if lo != 0 {
				p[i] = lo
				i++
			}
			x = hi
		}
		if i == len(p) || x-x != 0 {
			return bigSum(v)
		}
		p[i] = x
		n = i + 1
	}
	if n == 0 {
		return 0
	}
	// Add the partials from the top down while the sum stays exact.
	n--
	hi, lo := p[n], 0.0
	for n > 0 {
		x := hi
		n--
		y := p[n]
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	// The partials below lo decide a tie: when lo is exactly half an
	// ulp of hi and the rest of the sum lies on lo's side, the correctly
	// rounded sum is the neighbour of hi on that side.
	if n > 0 && (lo < 0 && p[n-1] < 0 || lo > 0 && p[n-1] > 0) {
		y := lo * 2
		if x := hi + y; x-hi == y {
			hi = x
		}
	}
	return hi
}

// naiveSum adds v left to right.
func naiveSum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// bigSumPrec holds any sum of up to 2^100 finite float64s exactly: they
// span 2,098 bit positions, from 2^-1074 to 2^1023.
const bigSumPrec = 2200

// bigSum returns the sum of the finite v correctly rounded to float64,
// adding in a big.Float wide enough that no addition rounds.
func bigSum(v []float64) float64 {
	var acc, x big.Float
	acc.SetPrec(bigSumPrec)
	for _, f := range v {
		acc.Add(&acc, x.SetFloat64(f))
	}
	s, _ := acc.Float64()
	return s
}

// selectKth returns the k-th smallest element (0-indexed) of a,
// partially partitioning a in place — the order statistic without a
// full sort. Median-of-three pivoting with a Hoare partition; the
// selected order statistic is identical to sorting and indexing, so
// the result is deterministic regardless of the partition path. On
// return every element after position k is at least a[k].
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		p := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return a[k]
		}
	}
	return a[k]
}
