// Package reliability implements the paper's availability and reliability
// models (§VII, §VIII):
//
//   - Near-zero-cost overprovisioning (Figs. 24, 25): compute-node
//     lifetimes are i.i.d. Exp(λ) with MTTF T = 1/λ; Zₙ(t) indicates at
//     least 10 of n nodes alive; Z′ₙ(t) is the powered-node count capped at
//     10. Both are evaluated exactly via the binomial distribution; the
//     tests cross-check them with a Monte-Carlo estimate.
//   - Hardware/software redundancy schemes (Fig. 28): TMR, DMR, and
//     software-based hardening with their power overheads.
//   - The total-ionizing-dose-vs-technology-node dataset (Fig. 26).
//   - A pessimistic soft-error accuracy model for ImageNet ANNs (Fig. 27).
package reliability

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// SurvivalProb returns the probability a single Exp(1/T) node is still
// alive at time t (both in the same unit, typically multiples of T).
func SurvivalProb(tOverT float64) float64 {
	if tOverT <= 0 {
		return 1
	}
	return math.Exp(-tOverT)
}

// DrawLifetime samples an exponential lifetime with mean mttf (any time
// unit) from the injected RNG — the distribution behind SurvivalProb:
// P(L ≥ t) = SurvivalProb(t/mttf). The fault-injection engine draws
// permanent node deaths from it so discrete-event availability can be
// cross-checked against the closed-form binomial curves here.
func DrawLifetime(rng *rand.Rand, mttf float64) float64 {
	return rng.ExpFloat64() * mttf
}

// logChoose returns log C(n, k).
func logChoose(n, k int) float64 {
	ln1, _ := math.Lgamma(float64(n + 1))
	lk1, _ := math.Lgamma(float64(k + 1))
	lnk1, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk1 - lnk1
}

// BinomialPMF returns P(Bin(n,p) = k).
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	return math.Exp(logChoose(n, k) +
		float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

// BinomialTail returns P(Bin(n,p) ≥ k).
func BinomialTail(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	var sum float64
	for i := k; i <= n; i++ {
		sum += BinomialPMF(n, i, p)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// Availability returns P(Zₙ(t) = 1): the probability that at least `need`
// of n nodes are alive at time t (in units of the MTTF T).
func Availability(n, need int, tOverT float64) (float64, error) {
	if n < 1 || need < 1 {
		return 0, errors.New("reliability: n and need must be ≥ 1")
	}
	if need > n {
		return 0, nil
	}
	if tOverT < 0 {
		return 0, errors.New("reliability: negative time")
	}
	return BinomialTail(n, need, SurvivalProb(tOverT)), nil
}

// MeanAvailability returns the time-averaged availability over a run of
// length h (in units of the MTTF T): (1/h)·∫₀ʰ P(Zₙ(t)=1) dt, evaluated
// by composite Simpson quadrature. It is the analytic anchor for
// DES-measured availability, which is itself a time average over the
// simulated horizon.
func MeanAvailability(n, need int, horizonOverT float64) (float64, error) {
	if n < 1 || need < 1 {
		return 0, errors.New("reliability: n and need must be ≥ 1")
	}
	if horizonOverT <= 0 {
		return 0, errors.New("reliability: horizon must be positive")
	}
	if need > n {
		return 0, nil
	}
	const steps = 512 // even, for Simpson's rule
	h := horizonOverT / steps
	var sum float64
	for i := 0; i <= steps; i++ {
		a, err := Availability(n, need, float64(i)*h)
		if err != nil {
			return 0, err
		}
		switch {
		case i == 0 || i == steps:
			sum += a
		case i%2 == 1:
			sum += 4 * a
		default:
			sum += 2 * a
		}
	}
	return sum * h / 3 / horizonOverT, nil
}

// ExpectedWorking returns E[Z′ₙ(t)] = E[min(cap, #alive)] at time t (in
// units of T).
func ExpectedWorking(n, cap int, tOverT float64) (float64, error) {
	if n < 1 || cap < 1 {
		return 0, errors.New("reliability: n and cap must be ≥ 1")
	}
	if tOverT < 0 {
		return 0, errors.New("reliability: negative time")
	}
	p := SurvivalProb(tOverT)
	var e float64
	for k := 0; k <= n; k++ {
		working := k
		if working > cap {
			working = cap
		}
		e += float64(working) * BinomialPMF(n, k, p)
	}
	// Guard against float accumulation creeping past the cap.
	if e > float64(cap) {
		e = float64(cap)
	}
	return e, nil
}

// TimeToAvailability returns the time (in units of T) at which
// P(Zₙ = 1) first drops to the target probability, found by bisection.
// With target = 0.5 this is the paper's "median time to system
// degradation"; with target = 0.01 it is the time at which "probability of
// system degradation exceeds 99%".
func TimeToAvailability(n, need int, target float64) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, errors.New("reliability: target must be in (0,1)")
	}
	if need > n {
		return 0, fmt.Errorf("reliability: need %d > n %d", need, n)
	}
	lo, hi := 0.0, 1.0
	for {
		a, err := Availability(n, need, hi)
		if err != nil {
			return 0, err
		}
		if a < target {
			break
		}
		hi *= 2
		if hi > 1e6 {
			return 0, errors.New("reliability: availability never drops to target")
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		a, _ := Availability(n, need, mid)
		if a > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Scheme is a redundancy strategy with its power overhead (Fig. 28).
type Scheme struct {
	Name string
	// PowerOverhead multiplies the equivalent computing power: a DMR
	// scheme at 2 kW equivalent consumes ~4 kW.
	PowerOverhead float64
}

// The paper's three schemes.
var (
	// TMR is triple modular redundancy (3× overhead).
	TMR = Scheme{Name: "TMR", PowerOverhead: 3}
	// DMR is dual modular redundancy (2× overhead).
	DMR = Scheme{Name: "DMR", PowerOverhead: 2}
	// SoftwareHardening is ANN-aware software redundancy (20% overhead,
	// which the paper calls conservative).
	SoftwareHardening = Scheme{Name: "software", PowerOverhead: 1.2}
)

// Schemes returns the redundancy options in the paper's Figure 28 order.
func Schemes() []Scheme { return []Scheme{TMR, DMR, SoftwareHardening} }

// TIDRecord is one datapoint of Figure 26: the total ionizing dose a
// commercial processor tolerated before failure in published testing
// ([34], [36], [44], [74], [79]).
type TIDRecord struct {
	Processor string
	// TechNodeNm is the manufacturing node in nanometers.
	TechNodeNm float64
	// ToleranceKrad is the dose at failure, krad(Si); for NoFailure
	// records it is the highest dose tested without failure.
	ToleranceKrad float64
	// NoFailure marks censored records (tested to ToleranceKrad without
	// failing — Intel Broadwell and AMD Llano in the paper).
	NoFailure bool
}

// TIDDataset returns Figure 26's datapoints, oldest node first.
func TIDDataset() []TIDRecord {
	return []TIDRecord{
		{Processor: "Intel 80386 (MQ80386)", TechNodeNm: 1500, ToleranceKrad: 8},
		{Processor: "Intel 80486DX2-66", TechNodeNm: 800, ToleranceKrad: 12},
		{Processor: "Intel Pentium III", TechNodeNm: 250, ToleranceKrad: 50},
		{Processor: "AMD K7", TechNodeNm: 180, ToleranceKrad: 65},
		{Processor: "AMD Llano", TechNodeNm: 32, ToleranceKrad: 1000, NoFailure: true},
		{Processor: "Intel 14nm SoC", TechNodeNm: 14, ToleranceKrad: 500, NoFailure: true},
	}
}

// SoftErrorNetwork is one ImageNet classifier in Figure 27.
type SoftErrorNetwork struct {
	Name string
	// BaselineTop1 is the fault-free ImageNet top-1 accuracy.
	BaselineTop1 float64
	// CriticalBits is the effective number of architecturally-critical
	// state bits exposed per inference (weights resident in SRAM plus
	// in-flight activations), in Mbit.
	CriticalBitsMbit float64
	// InferenceSeconds is the single-image inference latency used to turn
	// a flux into a per-inference upset probability.
	InferenceSeconds float64
}

// SoftErrorSuite returns the Figure 27 networks.
func SoftErrorSuite() []SoftErrorNetwork {
	return []SoftErrorNetwork{
		{Name: "resnet-50", BaselineTop1: 0.761, CriticalBitsMbit: 816, InferenceSeconds: 0.004},
		{Name: "vgg-16", BaselineTop1: 0.715, CriticalBitsMbit: 4424, InferenceSeconds: 0.007},
		{Name: "inception-v3", BaselineTop1: 0.774, CriticalBitsMbit: 764, InferenceSeconds: 0.005},
		{Name: "densenet-121", BaselineTop1: 0.745, CriticalBitsMbit: 256, InferenceSeconds: 0.006},
		{Name: "mobilenet-v2", BaselineTop1: 0.718, CriticalBitsMbit: 112, InferenceSeconds: 0.002},
	}
}

// AccuracyUnderFlux returns the expected ImageNet accuracy at the given
// upset flux (upsets per Mbit per second), under the paper's pessimistic
// assumptions: every soft error flips the inference to incorrect, and no
// soft error ever corrects one.
func (n SoftErrorNetwork) AccuracyUnderFlux(upsetsPerMbitSecond float64) (float64, error) {
	if upsetsPerMbitSecond < 0 {
		return 0, errors.New("reliability: negative flux")
	}
	lambda := upsetsPerMbitSecond * n.CriticalBitsMbit * n.InferenceSeconds
	return n.BaselineTop1 * math.Exp(-lambda), nil
}
