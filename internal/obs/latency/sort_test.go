package latency_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sudc/internal/obs/latency"
)

// sameSorted reports the first index where got differs from want bit
// for bit, or -1. Zeros compare by value: −0 and +0 are equal to both
// sorts, which may order them either way.
func sameSorted(got, want []float64) int {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g == 0 && w == 0) {
			return i
		}
	}
	return -1
}

// checkSort sorts a copy of xs with latency.Sort and with sort.Float64s
// and compares the results.
func checkSort(t *testing.T, xs []float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	want := append([]float64(nil), xs...)
	latency.Sort(got)
	sort.Float64s(want)
	if i := sameSorted(got, want); i >= 0 {
		t.Fatalf("n=%d: index %d is %v (%#x), sort.Float64s has %v (%#x)",
			len(xs), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	dists := []struct {
		name string
		draw func(r *rand.Rand, i, n int) float64
	}{
		{"exponential", func(r *rand.Rand, _, _ int) float64 { return r.ExpFloat64() }},
		{"lognormal", func(r *rand.Rand, _, _ int) float64 { return math.Exp(r.NormFloat64()) }},
		{"star-ref-range", func(r *rand.Rand, _, _ int) float64 { return 0.35 + 5.25*r.Float64() }},
		{"heavy-tie", func(r *rand.Rand, _, _ int) float64 { return 0.25 * float64(r.Intn(5)) }},
		{"all-equal", func(*rand.Rand, int, int) float64 { return 1.5 }},
		{"two-value", func(r *rand.Rand, _, _ int) float64 { return []float64{0.35, 5.6}[r.Intn(2)] }},
		{"subnormal", func(r *rand.Rand, _, _ int) float64 {
			return math.SmallestNonzeroFloat64 * float64(r.Intn(2000)-1000)
		}},
		{"inf", func(r *rand.Rand, _, _ int) float64 {
			return []float64{math.Inf(-1), math.Inf(1), r.NormFloat64(), 0}[r.Intn(4)]
		}},
		{"narrow-range", func(r *rand.Rand, _, _ int) float64 {
			return math.Float64frombits(math.Float64bits(2.5) + uint64(r.Intn(40)))
		}},
		{"signed-zeros", func(r *rand.Rand, _, _ int) float64 {
			return []float64{math.Copysign(0, -1), 0, -r.ExpFloat64(), r.ExpFloat64()}[r.Intn(4)]
		}},
		{"any-bits", func(r *rand.Rand, _, _ int) float64 {
			for {
				if x := math.Float64frombits(r.Uint64()); !math.IsNaN(x) {
					return x
				}
			}
		}},
		{"ascending", func(_ *rand.Rand, i, _ int) float64 { return float64(i) }},
		{"descending", func(_ *rand.Rand, i, n int) float64 { return float64(n - i) }},
	}
	// The lengths straddle the insertion-sort cutoff (32) and reach
	// the full 2^11-bucket levels.
	lengths := []int{0, 1, 2, 3, 31, 32, 33, 64, 100, 257, 1000, 4099, 20000}
	for _, d := range dists {
		t.Run(d.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(d.name))))
			for _, n := range lengths {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = d.draw(r, i, n)
				}
				checkSort(t, xs)
			}
		})
	}
}

func TestSortFallsBackOnNaN(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 5, 40, 3000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.ExpFloat64()
		}
		xs[r.Intn(n)] = math.NaN()
		xs[r.Intn(n)] = math.Float64frombits(0xfff8000000000001) // negative NaN payload
		got := append([]float64(nil), xs...)
		want := append([]float64(nil), xs...)
		latency.Sort(got)
		sort.Float64s(want)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: index %d is %#x, sort.Float64s has %#x",
					n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

func FuzzSortMatchesStdlib(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1)))
	seed := []byte{}
	for _, x := range []float64{5.6, 0.35, math.Inf(1), -1, math.Copysign(0, -1), 0, 1e-310, 2.5, 2.5, -math.MaxFloat64} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(seed)
	// A seed past the insertion-sort cutoff, so mutations reach the
	// radix levels.
	long := append([]byte(nil), seed...)
	for _, x := range latencySample(200) {
		long = binary.LittleEndian.AppendUint64(long, math.Float64bits(x))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		checkSort(t, xs)
	})
}

// latencySample returns n run-latency-like values: a 0.35 s floor
// plus a lognormal queueing tail, clipped at 5.6 s — the range the
// 64-satellite reference run's frame latencies fall in.
func latencySample(n int) []float64 {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = min(0.35+0.4*math.Exp(0.8*r.NormFloat64()), 5.6)
	}
	return xs
}

func TestSortAllocatesNothing(t *testing.T) {
	src := latencySample(20000)
	work := make([]float64, len(src))
	if n := testing.AllocsPerRun(100, func() {
		copy(work, src)
		latency.Sort(work)
	}); n != 0 {
		t.Errorf("Sort allocated %v times per call, want 0", n)
	}
}

var sortSink float64

// BenchmarkSortLatencies sorts a 552,948-sample (one reference-run
// day) and a 46,068-sample (a two-hour run) latency set, with the
// kernel and with sort.Float64s. Each op re-copies the unsorted
// sample, which both variants pay alike.
func BenchmarkSortLatencies(b *testing.B) {
	for _, n := range []int{46068, 552948} {
		src := latencySample(n)
		work := make([]float64, n)
		for _, s := range []struct {
			name string
			sort func([]float64)
		}{{"kernel", latency.Sort}, {"stdlib", sort.Float64s}} {
			b.Run(fmt.Sprintf("%s/n=%d", s.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(work, src)
					s.sort(work)
				}
				sortSink = work[n/2]
			})
		}
	}
}
