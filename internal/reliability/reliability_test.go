package reliability

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sudc/internal/par"
	"sudc/internal/par/partest"
	"sudc/internal/units"
)

func TestSurvivalProb(t *testing.T) {
	if SurvivalProb(0) != 1 {
		t.Error("survival at t=0 must be 1")
	}
	if got := SurvivalProb(1); !units.ApproxEqual(got, math.Exp(-1), 1e-12) {
		t.Errorf("survival at T = %v, want 1/e", got)
	}
	if SurvivalProb(-1) != 1 {
		t.Error("negative time clamps to 1")
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, p := range []float64{0, 0.2, 0.5, 0.9, 1} {
		var sum float64
		for k := 0; k <= 30; k++ {
			sum += BinomialPMF(30, k, p)
		}
		if !units.ApproxEqual(sum, 1, 1e-9) {
			t.Errorf("PMF at p=%v sums to %v", p, sum)
		}
	}
}

func TestBinomialPMFEdges(t *testing.T) {
	if BinomialPMF(10, -1, 0.5) != 0 || BinomialPMF(10, 11, 0.5) != 0 {
		t.Error("out-of-range k must be 0")
	}
	if BinomialPMF(10, 0, 0) != 1 || BinomialPMF(10, 10, 1) != 1 {
		t.Error("degenerate p must concentrate mass")
	}
}

func TestBinomialTail(t *testing.T) {
	// Bin(4, 0.5): P(≥2) = 11/16.
	if got := BinomialTail(4, 2, 0.5); !units.ApproxEqual(got, 11.0/16, 1e-12) {
		t.Errorf("P(Bin(4,.5)≥2) = %v, want 11/16", got)
	}
	if BinomialTail(4, 0, 0.3) != 1 {
		t.Error("tail at k=0 must be 1")
	}
	if BinomialTail(4, 5, 0.3) != 0 {
		t.Error("tail beyond n must be 0")
	}
}

func TestAvailabilityNoOverprovisioning(t *testing.T) {
	// With n = need = 10, availability is e^{-10t/T}.
	got, err := Availability(10, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-1)
	if !units.ApproxEqual(got, want, 1e-9) {
		t.Errorf("availability = %v, want %v", got, want)
	}
}

func TestAvailabilityErrors(t *testing.T) {
	if _, err := Availability(0, 1, 1); err == nil {
		t.Error("n=0 must error")
	}
	if _, err := Availability(10, 10, -1); err == nil {
		t.Error("negative time must error")
	}
	v, err := Availability(5, 10, 1)
	if err != nil || v != 0 {
		t.Error("need > n must give zero availability")
	}
}

func TestPaper99PercentDegradationTimes(t *testing.T) {
	// Paper §VII: "the time at which probability of system degradation
	// exceeds 99% ... 0.46, 1.43, and 1.89 for n = 10, 20, and 30".
	tests := []struct {
		n    int
		want float64
	}{
		{10, 0.46}, {20, 1.43}, {30, 1.89},
	}
	for _, tt := range tests {
		got, err := TimeToAvailability(tt.n, 10, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 0.03 {
			t.Errorf("n=%d: t(1%%) = %.3f T, want %.2f", tt.n, got, tt.want)
		}
	}
}

func TestMedianDegradationGrowsSuperlinearly(t *testing.T) {
	// Paper: "the median time to system degradation increases
	// superlinearly with overprovisioning factor".
	m10, _ := TimeToAvailability(10, 10, 0.5)
	m20, _ := TimeToAvailability(20, 10, 0.5)
	m30, _ := TimeToAvailability(30, 10, 0.5)
	if !(m20 > 2*m10) {
		t.Errorf("median(20)=%.3f should exceed 2×median(10)=%.3f", m20, 2*m10)
	}
	if !(m30 > m20 && m20 > m10) {
		t.Errorf("medians must increase: %v %v %v", m10, m20, m30)
	}
}

func TestTimeToAvailabilityErrors(t *testing.T) {
	if _, err := TimeToAvailability(10, 10, 0); err == nil {
		t.Error("target 0 must error")
	}
	if _, err := TimeToAvailability(10, 10, 1); err == nil {
		t.Error("target 1 must error")
	}
	if _, err := TimeToAvailability(5, 10, 0.5); err == nil {
		t.Error("need > n must error")
	}
}

func TestExpectedWorking(t *testing.T) {
	// At t=0 all n nodes work; capped at 10.
	e, err := ExpectedWorking(30, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(e, 10, 1e-12) {
		t.Errorf("E at t=0 = %v, want 10 (capped)", e)
	}
	// Without cap binding: n=10 at time t, E = 10·e^{-t}.
	e2, _ := ExpectedWorking(10, 10, 0.5)
	want := 10 * math.Exp(-0.5)
	if !units.ApproxEqual(e2, want, 1e-9) {
		t.Errorf("E = %v, want %v", e2, want)
	}
	if _, err := ExpectedWorking(0, 10, 1); err == nil {
		t.Error("n=0 must error")
	}
	if _, err := ExpectedWorking(10, 10, -1); err == nil {
		t.Error("negative time must error")
	}
}

func TestOverprovisioningImprovesEverything(t *testing.T) {
	// More spares help at every time (Figs. 24 & 25).
	for _, tt := range []float64{0.25, 0.5, 1, 1.5} {
		a10, _ := Availability(10, 10, tt)
		a20, _ := Availability(20, 10, tt)
		a30, _ := Availability(30, 10, tt)
		if !(a30 > a20 && a20 > a10) {
			t.Errorf("t=%v: availability not monotone in n: %v %v %v", tt, a10, a20, a30)
		}
		e10, _ := ExpectedWorking(10, 10, tt)
		e30, _ := ExpectedWorking(30, 10, tt)
		if e30 <= e10 {
			t.Errorf("t=%v: expected working not monotone in n", tt)
		}
	}
}

// mcShardTrials fixes how many Monte-Carlo trials share one forked RNG
// stream. The trial→stream mapping depends only on this constant and the
// root seed — never on the worker count — so the estimate is
// reproducible on any machine.
const mcShardTrials = 8192

// simulateTrials runs the Monte-Carlo inner loop against a caller-owned
// RNG, returning the raw counters.
func simulateTrials(rng *rand.Rand, n, need int, tOverT float64, trials int) (okCount int, sum float64) {
	for i := 0; i < trials; i++ {
		alive := 0
		for j := 0; j < n; j++ {
			// Exp(1) lifetime ≥ t ⟺ uniform draw < e^{-t}.
			if rng.ExpFloat64() >= tOverT {
				alive++
			}
		}
		if alive >= need {
			okCount++
		}
		if alive > need {
			alive = need
		}
		sum += float64(alive)
	}
	return okCount, sum
}

// simulate is the Monte-Carlo oracle of the exact formulas: it
// estimates (availability, expected working capped at `need`) at time t
// from trials independent draws. Trials are sharded over per-shard RNG
// streams forked from the seed and evaluated in parallel; the estimate
// is identical for any worker count.
func simulate(n, need int, tOverT float64, trials int, seed int64) (avail, expWorking float64) {
	type partial struct {
		ok  int
		sum float64
	}
	nShards := (trials + mcShardTrials - 1) / mcShardTrials
	parts := make([]partial, nShards)
	par.ForN(nShards, func(s int) {
		t := mcShardTrials
		if s == nShards-1 {
			t = trials - s*mcShardTrials
		}
		rng := par.GetRand(par.ForkSeed(seed, s))
		ok, sum := simulateTrials(rng, n, need, tOverT, t)
		par.PutRand(rng)
		parts[s] = partial{ok: ok, sum: sum}
	})
	okCount := 0
	var sum float64
	for _, p := range parts {
		okCount += p.ok
		sum += p.sum
	}
	return float64(okCount) / float64(trials), sum / float64(trials)
}

func TestSimulateMatchesExact(t *testing.T) {
	const trials = 200000
	for _, tc := range []struct {
		n int
		t float64
	}{{10, 0.25}, {20, 0.8}, {30, 1.25}} {
		simA, simE := simulate(tc.n, 10, tc.t, trials, 42)
		exactA, _ := Availability(tc.n, 10, tc.t)
		exactE, _ := ExpectedWorking(tc.n, 10, tc.t)
		if math.Abs(simA-exactA) > 0.01 {
			t.Errorf("n=%d t=%v: MC availability %.4f vs exact %.4f", tc.n, tc.t, simA, exactA)
		}
		if math.Abs(simE-exactE) > 0.05 {
			t.Errorf("n=%d t=%v: MC expectation %.3f vs exact %.3f", tc.n, tc.t, simE, exactE)
		}
	}
}

func TestSchemes(t *testing.T) {
	s := Schemes()
	if len(s) != 3 {
		t.Fatal("want 3 schemes")
	}
	if TMR.PowerOverhead != 3 || DMR.PowerOverhead != 2 {
		t.Error("paper overheads: TMR 3×, DMR 2×")
	}
	if !units.ApproxEqual(SoftwareHardening.PowerOverhead, 1.2, 1e-12) {
		t.Error("software overhead 20%")
	}
}

func TestTIDDatasetShape(t *testing.T) {
	ds := TIDDataset()
	if len(ds) < 5 {
		t.Fatal("dataset too small")
	}
	// Tolerance broadly improves as tech node shrinks (the Fig. 26 trend).
	first, last := ds[0], ds[len(ds)-1]
	if first.TechNodeNm <= last.TechNodeNm {
		t.Error("dataset must be ordered oldest node first")
	}
	if last.ToleranceKrad <= first.ToleranceKrad {
		t.Error("modern nodes must tolerate more dose")
	}
	// Paper: "At 14 nm tech node, processors can tolerate an order of
	// magnitude more radiation than ... an LEO satellite's lifetime"
	// (5 yr × 0.5 krad/yr = 2.5 krad).
	for _, r := range ds {
		if r.TechNodeNm <= 32 && r.ToleranceKrad < 25 {
			t.Errorf("%s: tolerance %v krad too low for the paper's claim", r.Processor, r.ToleranceKrad)
		}
	}
	// Censoring flags on the two no-failure parts.
	var censored int
	for _, r := range ds {
		if r.NoFailure {
			censored++
		}
	}
	if censored != 2 {
		t.Errorf("want 2 censored records (Broadwell-class 14nm, Llano), have %d", censored)
	}
}

func TestSoftErrorModel(t *testing.T) {
	suite := SoftErrorSuite()
	if len(suite) != 5 {
		t.Fatal("want 5 networks")
	}
	for _, n := range suite {
		// Zero flux → baseline accuracy.
		a0, err := n.AccuracyUnderFlux(0)
		if err != nil {
			t.Fatal(err)
		}
		if a0 != n.BaselineTop1 {
			t.Errorf("%s: zero-flux accuracy %v != baseline %v", n.Name, a0, n.BaselineTop1)
		}
		// Monotone decreasing in flux.
		a1, _ := n.AccuracyUnderFlux(1)
		a10, _ := n.AccuracyUnderFlux(10)
		if !(a1 < a0 && a10 < a1) {
			t.Errorf("%s: accuracy must fall with flux", n.Name)
		}
		if _, err := n.AccuracyUnderFlux(-1); err == nil {
			t.Error("negative flux must error")
		}
	}
	// Bigger networks expose more critical bits: VGG-16 degrades faster
	// than MobileNet-V2 at the same flux.
	var vgg, mob SoftErrorNetwork
	for _, n := range suite {
		switch n.Name {
		case "vgg-16":
			vgg = n
		case "mobilenet-v2":
			mob = n
		}
	}
	av, _ := vgg.AccuracyUnderFlux(0.1)
	am, _ := mob.AccuracyUnderFlux(0.1)
	if av/vgg.BaselineTop1 >= am/mob.BaselineTop1 {
		t.Error("VGG-16 must lose relatively more accuracy than MobileNet-V2")
	}
}

func TestAvailabilityMonotoneDecreasingInTime(t *testing.T) {
	f := func(raw uint8) bool {
		tt := float64(raw) / 100
		a1, err1 := Availability(20, 10, tt)
		a2, err2 := Availability(20, 10, tt+0.05)
		if err1 != nil || err2 != nil {
			return false
		}
		return a2 <= a1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpectedWorkingBounds(t *testing.T) {
	f := func(rawN, rawT uint8) bool {
		n := int(rawN)%40 + 10
		tt := float64(rawT) / 50
		e, err := ExpectedWorking(n, 10, tt)
		if err != nil {
			return false
		}
		return e >= 0 && e <= 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimulateInvariantUnderWorkerCount(t *testing.T) {
	// The trial→stream mapping is fixed by the seed and shard size, so
	// the estimate is bit-identical for any worker count.
	refA, refE := simulate(20, 10, 0.8, 50000, 42)
	for _, w := range []int{1, 2, 8} {
		prev := par.SetDefaultWorkers(w)
		a, e := simulate(20, 10, 0.8, 50000, 42)
		par.SetDefaultWorkers(prev)
		if a != refA || e != refE {
			t.Errorf("workers=%d: (%.6f, %.6f) differs from (%.6f, %.6f)", w, a, e, refA, refE)
		}
	}
}

func TestDrawLifetimeMatchesSurvivalProb(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, mttf = 20000, 3.0
	var sum float64
	surviving := 0
	for i := 0; i < n; i++ {
		l := DrawLifetime(rng, mttf)
		if l < 0 {
			t.Fatal("negative lifetime")
		}
		sum += l
		if l >= mttf {
			surviving++
		}
	}
	if mean := sum / n; math.Abs(mean-mttf) > 0.1 {
		t.Errorf("mean lifetime %.3f, want ≈%.1f", mean, mttf)
	}
	// P(L ≥ T) = SurvivalProb(1) = 1/e.
	if got, want := float64(surviving)/n, SurvivalProb(1); math.Abs(got-want) > 0.02 {
		t.Errorf("survival at t=T: %.3f, want ≈%.3f", got, want)
	}
}

func TestMeanAvailability(t *testing.T) {
	// need > n: no availability at all.
	if a, err := MeanAvailability(3, 5, 1); err != nil || a != 0 {
		t.Errorf("need > n: got (%v, %v), want (0, nil)", a, err)
	}
	// Single node, need 1: (1/h)∫₀ʰ e^{-t} dt = (1 − e^{-h})/h.
	h := 0.5
	got, err := MeanAvailability(1, 1, h)
	if err != nil {
		t.Fatal(err)
	}
	want := (1 - math.Exp(-h)) / h
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("MeanAvailability(1,1,%v) = %.8f, want %.8f", h, got, want)
	}
	// Monotone in n: every spare raises the time average.
	prev := 0.0
	for n := 4; n <= 8; n++ {
		a, err := MeanAvailability(n, 4, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if a <= prev {
			t.Errorf("n=%d: mean availability %.4f must exceed n=%d's %.4f", n, a, n-1, prev)
		}
		if a > 1 {
			t.Errorf("n=%d: mean availability %v > 1", n, a)
		}
		prev = a
	}
	// A shorter horizon averages over healthier times.
	short, _ := MeanAvailability(4, 4, 0.1)
	long, _ := MeanAvailability(4, 4, 2)
	if short <= long {
		t.Errorf("shorter horizon must average higher: %.4f vs %.4f", short, long)
	}
}

func TestMeanAvailabilityErrors(t *testing.T) {
	if _, err := MeanAvailability(0, 1, 1); err == nil {
		t.Error("n < 1 must error")
	}
	if _, err := MeanAvailability(4, 0, 1); err == nil {
		t.Error("need < 1 must error")
	}
	if _, err := MeanAvailability(4, 2, 0); err == nil {
		t.Error("zero horizon must error")
	}
	if _, err := MeanAvailability(4, 2, -1); err == nil {
		t.Error("negative horizon must error")
	}
}

// BenchmarkMonteCarloParallel measures the sharded Monte-Carlo oracle at
// fixed worker counts.
func BenchmarkMonteCarloParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			partest.WithDefaultWorkers(b, w)
			for i := 0; i < b.N; i++ {
				simulate(30, 10, 1.25, 200000, 42)
			}
		})
	}
}
