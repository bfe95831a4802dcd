package latency

import (
	"math"
	"math/bits"
	"sort"
)

// sortFloats sorts xs into ascending order in place, without
// allocating.
//
// For input with no NaN the result equals sort.Float64s's byte for
// byte, apart from the relative order of −0 and +0: a sorted sequence
// is otherwise unique, and the two zeros compare equal, so no sum and
// no order statistic can tell the results apart. Input holding a NaN
// is handed to sort.Float64s itself.
//
// The kernel is an in-place MSD radix sort (an American-flag
// permutation) on the order-preserving uint64 key of each value. Each
// level buckets on the leading bits of key − min, so values packed into
// a narrow range (run latencies span a few seconds) still spread over
// the buckets; the bucket count follows the slice length, about len/4
// and at most 2^11, so small buckets do not pay for large count
// passes. Buckets shorter than insertionMax finish by insertion sort.
// A level spreads at least 3 key bits, so the recursion is at most 22
// levels deep; the count and cursor arrays are one fixed-size pair in
// this frame, shared by every level.
func sortFloats(xs []float64) {
	lo, hi := ^uint64(0), uint64(0)
	for _, x := range xs {
		if x != x {
			sort.Float64s(xs)
			return
		}
		k := sortKey(x)
		lo, hi = min(lo, k), max(hi, k)
	}
	var bc bucketCursors
	radixSort(xs, lo, hi, &bc)
}

const (
	// insertionMax is the bucket length below which insertion sort
	// beats another radix level.
	insertionMax = 32
	// maxBucketBits caps a level at 2^11 buckets.
	maxBucketBits = 11
)

// bucketCursors holds one level's bucket cursors and ends. A level is
// done with it before it recurses, so every level reuses one pair.
type bucketCursors struct {
	next, end [1 << maxBucketBits]int
}

// sortKey maps x to a uint64 whose unsigned order is x's numeric order
// (−0 just below +0): negative values have every bit flipped, others
// only the sign bit.
func sortKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// radixSort sorts xs, whose keys all lie in [lo, hi].
func radixSort(xs []float64, lo, hi uint64, bc *bucketCursors) {
	if len(xs) < insertionMax {
		insertionSort(xs)
		return
	}
	if lo == hi {
		return
	}
	b := min(bits.Len(uint(len(xs)))-3, maxBucketBits)
	shift := uint(max(bits.Len64(hi-lo)-b, 0))
	permute(xs, lo, shift, int((hi-lo)>>shift)+1, bc)
	// The buckets now lie in key order. Walk their runs, each with its
	// own key range, and sort them one by one.
	for i := 0; i < len(xs); {
		k := sortKey(xs[i])
		bk := (k - lo) >> shift
		rlo, rhi := k, k
		j := i + 1
		for ; j < len(xs); j++ {
			k = sortKey(xs[j])
			if (k-lo)>>shift != bk {
				break
			}
			rlo, rhi = min(rlo, k), max(rhi, k)
		}
		radixSort(xs[i:j], rlo, rhi, bc)
		i = j
	}
}

// permute moves every value of xs into its bucket (key − lo) >> shift,
// of which there are nb, cycle by cycle.
func permute(xs []float64, lo uint64, shift uint, nb int, bc *bucketCursors) {
	next, end := bc.next[:nb], bc.end[:nb]
	clear(end)
	for _, x := range xs {
		end[(sortKey(x)-lo)>>shift]++
	}
	sum := 0
	for i, n := range end {
		next[i] = sum
		sum += n
		end[i] = sum
	}
	for i := range next {
		for next[i] < end[i] {
			v := xs[next[i]]
			bk := int((sortKey(v) - lo) >> shift)
			for bk != i {
				v, xs[next[bk]] = xs[next[bk]], v
				next[bk]++
				bk = int((sortKey(v) - lo) >> shift)
			}
			xs[next[i]] = v
			next[i]++
		}
	}
}

// insertionSort sorts a short NaN-free xs.
func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v, j := xs[i], i
		for ; j > 0 && v < xs[j-1]; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = v
	}
}
