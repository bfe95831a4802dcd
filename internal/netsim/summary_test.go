package netsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
	"time"

	"sudc/internal/obs/latency"
	"sudc/internal/placement"
)

// refSummary is the latency summary the simulator computed before
// summarizeLatency: sort the samples, sum them in sorted order, index
// the P95 and interpolate each tier's P99 in the sorted sample. It is
// the reference the O(n) summary is checked against, and it sorts v.
func refSummary(stats *Stats, all []float64, tiers *[placement.NumTiers][]float64) {
	if n := len(all); n > 0 {
		sort.Float64s(all)
		stats.MeanLatency = time.Duration(sortedSum(all) / float64(n) * float64(time.Second))
		stats.P95Latency = time.Duration(all[int(float64(n)*0.95)] * float64(time.Second))
	}
	for t, v := range tiers {
		if n := len(v); n > 0 {
			sort.Float64s(v)
			stats.TierMeanLatency[t] = time.Duration(sortedSum(v) / float64(n) * float64(time.Second))
			stats.TierP99Latency[t] = time.Duration(latency.Quantile(v, 0.99) * float64(time.Second))
		}
	}
}

// sortedSum adds the sorted v in order, as the reference summary did.
func sortedSum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// ratSum returns the exact sum of the finite v, rounded once to the
// nearest float64 (ties to even), computed over the rationals.
func ratSum(v []float64) float64 {
	var acc, x big.Rat
	for _, f := range v {
		acc.Add(&acc, x.SetFloat64(f))
	}
	s, _ := acc.Float64()
	return s
}

// maxFuzzSamples caps the samples one fuzz input decodes to.
const maxFuzzSamples = 4096

// fuzzSamples decodes data, 8 bytes a sample, into at most
// maxFuzzSamples latencies in [1e-9, 1e6] s. The low three bits pick a
// zero (1 in 8), a tie with an earlier sample (2 in 8) or a value,
// clamped to the range, whose binary exponent in [-30, 19] comes from
// bits 3–8 and whose 52 mantissa bits are the top 52.
func fuzzSamples(data []byte) []float64 {
	xs := make([]float64, 0, min(len(data)/8, maxFuzzSamples))
	for ; len(data) >= 8 && len(xs) < maxFuzzSamples; data = data[8:] {
		u := binary.LittleEndian.Uint64(data)
		var x float64
		switch {
		case u%8 == 0:
		case u%8 <= 2 && len(xs) > 0:
			x = xs[(u>>3)%uint64(len(xs))]
		default:
			exp := uint64(1023 - 30 + (u>>3&63)%50)
			x = min(max(math.Float64frombits(exp<<52|u>>12), 1e-9), 1e6)
		}
		xs = append(xs, x)
	}
	return xs
}

// encodeSamples is fuzzSamples' inverse for seed inputs of zeros and
// values in [2^-30, 2^20): a value encodes with selector bits 3.
func encodeSamples(xs []float64) []byte {
	var b []byte
	for _, x := range xs {
		var u uint64
		if x != 0 {
			bits := math.Float64bits(x)
			exp := bits>>52 - (1023 - 30)
			u = bits<<12 | exp<<3 | 3
		}
		b = binary.LittleEndian.AppendUint64(b, u)
	}
	return b
}

// checkSummary compares summarizeLatency with the reference on xs,
// given as the run's samples and as one placement tier's.
func checkSummary(t *testing.T, xs []float64) {
	t.Helper()
	n := len(xs)
	clone := func() []float64 { return append([]float64(nil), xs...) }

	var got, want Stats
	gotTiers := [placement.NumTiers][]float64{placement.TierGroundEdge: clone()}
	wantTiers := [placement.NumTiers][]float64{placement.TierGroundEdge: clone()}
	gotAll, wantAll := clone(), clone()
	summarizeLatency(&got, gotAll, &gotTiers)
	refSummary(&want, wantAll, &wantTiers)
	if got.P95Latency != want.P95Latency {
		t.Errorf("n=%d: P95 %v, the sorted reference %v", n, got.P95Latency, want.P95Latency)
	}
	if got.TierP99Latency != want.TierP99Latency {
		t.Errorf("n=%d: tier P99 %v, the sorted reference %v", n, got.TierP99Latency, want.TierP99Latency)
	}
	// The order statistics themselves, bit for bit.
	sorted := wantAll
	if p95 := selectKth(clone(), int(float64(n)*0.95)); math.Float64bits(p95) != math.Float64bits(sorted[int(float64(n)*0.95)]) {
		t.Errorf("n=%d: P95 sample %v, the sorted reference %v", n, p95, sorted[int(float64(n)*0.95)])
	}
	if p99, ref := quantile99(clone()), latency.Quantile(sorted, 0.99); math.Float64bits(p99) != math.Float64bits(ref) {
		t.Errorf("n=%d: P99 %v, the sorted reference %v", n, p99, ref)
	}

	// The mean divides the exact sum rounded once.
	sum, exact := exactSum(clone()), ratSum(xs)
	if math.Float64bits(sum) != math.Float64bits(exact) {
		t.Fatalf("n=%d: exactSum %v, the exact sum rounded once is %v", n, sum, exact)
	}
	mean := time.Duration(exact / float64(n) * float64(time.Second))
	if got.MeanLatency != mean || got.TierMeanLatency[placement.TierGroundEdge] != mean {
		t.Errorf("n=%d: mean %v (tier %v), want %v", n, got.MeanLatency,
			got.TierMeanLatency[placement.TierGroundEdge], mean)
	}
	// The sorted-order sum the reference divided stays within the
	// recursive-summation bound γ(n−1)·Σ|x| of the exact sum, and the
	// exact sum rounds by at most u·|S|, u = 2^-53.
	const u = 0x1p-53
	gamma := float64(n) * u / (1 - float64(n)*u)
	if d := math.Abs(sum - sortedSum(sorted)); d > gamma*exact {
		t.Errorf("n=%d: |exact − sorted-order sum| = %g exceeds the bound %g", n, d, gamma*exact)
	}
}

func FuzzLatencySummaryMatchesSort(f *testing.F) {
	f.Add(encodeSamples([]float64{0.35, 5.6, 0.35, 1e-9, 999999, 2.5}))
	f.Add(make([]byte, 8*100)) // 100 zeros
	// Run-like samples with zeros and ties, at lengths on both sides of
	// a P95 or P99 index step.
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 19, 20, 21, 99, 100, 101, 1440, 4096} {
		xs := latencySample(n)
		for i := range xs {
			switch r.Intn(8) {
			case 0:
				xs[i] = 0
			case 1:
				xs[i] = xs[r.Intn(i+1)]
			}
		}
		f.Add(encodeSamples(xs))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := fuzzSamples(data)
		if len(xs) == 0 {
			return
		}
		checkSummary(t, xs)
	})
}

// TestExactSumIsCorrectlyRounded pins exactSum on sums where the
// order of a plain float64 sum matters, and on the big.Float and
// naive fallbacks.
func TestExactSumIsCorrectlyRounded(t *testing.T) {
	wide := make([]float64, 0, 40)
	for k := 0; k < 37; k++ {
		// Non-overlapping powers of two 55 bits apart: 37 partials, more
		// than the stack array holds.
		wide = append(wide, math.Ldexp(1, -1000+55*k))
	}
	for _, tc := range []struct {
		name string
		v    []float64
	}{
		{"empty", nil},
		{"cancel", []float64{1e100, 1, -1e100}},
		// 1e-16 breaks the tie of 1 + 2^53 toward 2^53 + 2.
		{"half-even across partials", []float64{1e-16, 1, 1 << 53}},
		{"tenths", []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}},
		{"partials overflow the stack", wide},
		{"intermediate overflow", []float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64}},
		{"subnormals", []float64{5e-324, 5e-324, 1e-310, -1e-310}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := ratSum(tc.v)
			if got := exactSum(append([]float64(nil), tc.v...)); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("exactSum = %v, want %v", got, want)
			}
		})
	}
	if got := exactSum([]float64{1, math.Inf(1), 2}); !math.IsInf(got, 1) {
		t.Errorf("exactSum with +Inf = %v, want +Inf", got)
	}
	if got := exactSum([]float64{math.Inf(1), math.Inf(-1)}); !math.IsNaN(got) {
		t.Errorf("exactSum of +Inf and -Inf = %v, want NaN", got)
	}
}

func TestLatencySummaryAllocatesNothing(t *testing.T) {
	src := latencySample(20000)
	work := make([]float64, len(src))
	var tiers [placement.NumTiers][]float64
	tiers[placement.TierCloud] = make([]float64, len(src))
	var st Stats
	if n := testing.AllocsPerRun(20, func() {
		copy(work, src)
		copy(tiers[placement.TierCloud], src)
		summarizeLatency(&st, work, &tiers)
	}); n != 0 {
		t.Errorf("summarizeLatency allocated %v times per call, want 0", n)
	}
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

var summarySink Stats

// BenchmarkLatencySummary times the run-level summary (mean and P95)
// of a 552,948-sample set (a reference-run day) and a 1,440-sample set
// (an E7 run), with summarizeLatency and with the sort-based reference.
// Each op re-copies the unsorted sample, which both pay alike.
func BenchmarkLatencySummary(b *testing.B) {
	var noTiers [placement.NumTiers][]float64
	for _, n := range []int{552948, 1440} {
		src := latencySample(n)
		work := make([]float64, n)
		for _, s := range []struct {
			name string
			sum  func(*Stats, []float64, *[placement.NumTiers][]float64)
		}{{"summary", summarizeLatency}, {"sort", refSummary}} {
			b.Run(fmt.Sprintf("%s/n=%d", s.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(work, src)
					s.sum(&summarySink, work, &noTiers)
				}
			})
		}
	}
}
