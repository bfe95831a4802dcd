// Package faults is the repository's deterministic fault-injection
// engine. It turns a Scenario — rates for permanent node deaths,
// transient SEFI hangs, and ISL outages — into a concrete Schedule of
// timestamped fault events that a simulation replays.
//
// Determinism contract: a Schedule is a pure function of (Scenario,
// nodes, edges, horizon, seed, envelope). Each node draws its lifetime
// and hang renewal process from its own RNG stream i, seeded with
// par.ForkSeed(seed, i), and each ISL edge's outage process from a
// fixed stream index far above any plausible node count. A stream is
// seeded only when its process draws, and one generator from par's
// pool (par.GetRand) serves every stream of a build in turn, reseeded
// per stream (Seed re-initializes the source fully, so each stream
// draws exactly what a fresh par.NewRand(par.ForkSeed(seed, i))
// would). So
//
//   - the same inputs produce a byte-identical schedule on any machine
//     and under any worker count, and
//   - adding or removing one fault process never perturbs the draws of
//     another (each entity's stream starts from its own seed, never
//     where another stream left the generator).
//
// Node lifetimes are exponential with mean NodeMTTF — the same
// distribution behind reliability.SurvivalProb — so a discrete-event
// simulation replaying a Schedule can be cross-checked against the
// closed-form binomial availability of package reliability.
package faults

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"time"

	"sudc/internal/par"
	"sudc/internal/reliability"
)

// Scenario configures the fault processes. The zero value disables all
// of them (a fault-free world).
type Scenario struct {
	// NodeMTTF is the mean time to permanent node failure (wear-out,
	// TID death); lifetimes are exponential. Zero disables deaths.
	NodeMTTF time.Duration
	// SEFIMTBE is each node's mean time between transient single-event
	// functional interrupts (SEFI hangs). Zero disables hangs.
	SEFIMTBE time.Duration
	// SEFIRecovery is the mean watchdog-recovery time after a SEFI
	// (exponential). Required when SEFIMTBE is set.
	SEFIRecovery time.Duration
	// ISLOutageMTBF is the mean time between ISL outage windows
	// (pointing loss, terminal resets). Zero disables outages.
	ISLOutageMTBF time.Duration
	// ISLOutageDuration is the mean outage length (exponential).
	// Required when ISLOutageMTBF is set.
	ISLOutageDuration time.Duration
}

// Enabled reports whether any fault process is active.
func (s Scenario) Enabled() bool {
	return s.NodeMTTF > 0 || s.SEFIMTBE > 0 || s.ISLOutageMTBF > 0
}

// Validate reports scenario errors.
func (s Scenario) Validate() error {
	switch {
	case s.NodeMTTF < 0:
		return errors.New("faults: negative node MTTF")
	case s.SEFIMTBE < 0:
		return errors.New("faults: negative SEFI MTBE")
	case s.SEFIRecovery < 0:
		return errors.New("faults: negative SEFI recovery")
	case s.ISLOutageMTBF < 0:
		return errors.New("faults: negative ISL outage MTBF")
	case s.ISLOutageDuration < 0:
		return errors.New("faults: negative ISL outage duration")
	case s.SEFIMTBE > 0 && s.SEFIRecovery == 0:
		return errors.New("faults: SEFI hangs need a recovery time")
	case s.ISLOutageMTBF > 0 && s.ISLOutageDuration == 0:
		return errors.New("faults: ISL outages need a duration")
	}
	return nil
}

// Hang is one transient SEFI: node Node stops serving at At and resumes
// Recovery seconds later (times in seconds from run start).
type Hang struct {
	Node         int
	At, Recovery float64
}

// Outage is one ISL outage window starting at Start and lasting
// Duration seconds on link Edge (always 0 for single-link schedules).
type Outage struct {
	Start, Duration float64
	Edge            int
}

// Schedule is a concrete fault timeline for one simulation run.
type Schedule struct {
	// Deaths[i] is node i's permanent death time in seconds;
	// +Inf when the node outlives the horizon.
	Deaths []float64
	// Hangs lists SEFI hangs sorted by (At, Node). A node never hangs
	// after its death, and its own hangs never overlap.
	Hangs []Hang
	// Outages lists ISL outage windows sorted by (Start, Edge);
	// windows on the same edge never overlap.
	Outages []Outage
}

// islStream is the fork index of the first ISL outage RNG stream —
// fixed and far above any plausible node count so node streams never
// collide with it. Link e draws from stream islStream+e, so multi-edge
// topologies get independent outage processes per edge and the
// single-edge schedule is bit-identical to the pre-topology one.
const islStream = 1 << 30

// RateEnvelope is a piecewise-constant fault-intensity multiplier over
// the horizon: the SEFI hang rate at time t is the scenario's base rate
// times the multiplier of the segment containing t. Segments are
// defined by ascending start times (Starts[0] must be 0) and their
// multipliers (≥ 0). A nil envelope, or one whose multipliers are all
// exactly 1, is the identity — BuildModulated then produces the
// unmodulated schedule byte for byte.
type RateEnvelope struct {
	Starts []float64
	Mults  []float64
}

// Validate reports envelope shape errors.
func (e *RateEnvelope) Validate() error {
	if e == nil {
		return nil
	}
	if len(e.Starts) == 0 || len(e.Starts) != len(e.Mults) {
		return errors.New("faults: envelope needs equal, non-empty Starts and Mults")
	}
	if e.Starts[0] != 0 {
		return errors.New("faults: envelope must start at t=0")
	}
	for i, t := range e.Starts {
		if math.IsNaN(t) || (i > 0 && t <= e.Starts[i-1]) {
			return errors.New("faults: envelope starts must ascend")
		}
		if e.Mults[i] < 0 || math.IsNaN(e.Mults[i]) || math.IsInf(e.Mults[i], 0) {
			return errors.New("faults: envelope multiplier out of range")
		}
	}
	return nil
}

// identity reports whether the envelope leaves the base rate untouched.
func (e *RateEnvelope) identity() bool {
	if e == nil {
		return true
	}
	for _, m := range e.Mults {
		if m != 1 {
			return false
		}
	}
	return true
}

// at returns the multiplier active at time t (segments are half-open
// [Starts[i], Starts[i+1])).
func (e *RateEnvelope) at(t float64) float64 {
	i := sort.SearchFloat64s(e.Starts, t)
	// SearchFloat64s returns the first index with Starts[i] >= t; the
	// active segment is the one before it unless t hits a start exactly.
	if i == len(e.Starts) || e.Starts[i] > t {
		i--
	}
	if i < 0 {
		return e.Mults[0]
	}
	return e.Mults[i]
}

// max returns the envelope's peak multiplier.
func (e *RateEnvelope) max() float64 {
	m := 0.0
	for _, v := range e.Mults {
		if v > m {
			m = v
		}
	}
	return m
}

// BuildModulated materializes the schedule for `nodes` nodes and `edges`
// ISL links over the horizon. It accepts zero nodes (a relay cell owns
// links but no workers) and zero edges (a leaf cell owns workers but no
// links); nodes=0 with edges=0 is the valid empty schedule. Each edge's
// outage process draws from its own forked stream, so a schedule built
// for more edges extends — never perturbs — the smaller one. See the
// package comment for the determinism contract.
//
// env makes the SEFI intensity time-varying: the hang renewal process
// of every node is thinned against the envelope, so the instantaneous
// hang rate is base × env(t) — the mechanism behind
// temperature-modulated transient-fault rates. Node deaths and ISL
// outages are not modulated. A nil or identity envelope gives the
// unmodulated schedule byte for byte (the thinning path, which consumes
// extra RNG draws, is never entered).
func BuildModulated(s Scenario, nodes, edges int, horizon time.Duration, seed int64, env *RateEnvelope) (Schedule, error) {
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	if nodes < 0 {
		return Schedule{}, errors.New("faults: negative node count")
	}
	if edges < 0 {
		return Schedule{}, errors.New("faults: negative edge count")
	}
	if horizon <= 0 {
		return Schedule{}, errors.New("faults: horizon must be positive")
	}
	if err := env.Validate(); err != nil {
		return Schedule{}, err
	}
	if env.identity() {
		env = nil
	}
	h := horizon.Seconds()
	// One pooled generator, reseeded per stream (see the package
	// comment).
	var gen *rand.Rand
	stream := func(i int) *rand.Rand {
		if gen == nil {
			gen = par.GetRand(par.ForkSeed(seed, i))
		} else {
			gen.Seed(par.ForkSeed(seed, i))
		}
		return gen
	}
	sched := Schedule{Deaths: make([]float64, nodes)}
	for i := range sched.Deaths {
		if s.NodeMTTF == 0 && s.SEFIMTBE == 0 {
			sched.Deaths[i] = math.Inf(1)
			continue
		}
		rng := stream(i)
		death := math.Inf(1)
		if s.NodeMTTF > 0 {
			death = reliability.DrawLifetime(rng, s.NodeMTTF.Seconds())
			if death > h {
				death = math.Inf(1)
			}
		}
		sched.Deaths[i] = death
		if s.SEFIMTBE > 0 {
			limit := math.Min(death, h)
			if env == nil {
				for t := rng.ExpFloat64() * s.SEFIMTBE.Seconds(); t < limit; {
					rec := rng.ExpFloat64() * s.SEFIRecovery.Seconds()
					sched.Hangs = append(sched.Hangs, Hang{Node: i, At: t, Recovery: rec})
					// Next hang cannot begin before this one recovers.
					t += rec + rng.ExpFloat64()*s.SEFIMTBE.Seconds()
				}
			} else {
				sched.Hangs = modulatedHangs(sched.Hangs, s, i, rng, limit, env)
			}
		}
	}
	sort.Slice(sched.Hangs, func(a, b int) bool {
		if sched.Hangs[a].At != sched.Hangs[b].At {
			return sched.Hangs[a].At < sched.Hangs[b].At
		}
		return sched.Hangs[a].Node < sched.Hangs[b].Node
	})
	if s.ISLOutageMTBF > 0 {
		for e := 0; e < edges; e++ {
			rng := stream(islStream + e)
			for t := rng.ExpFloat64() * s.ISLOutageMTBF.Seconds(); t < h; {
				dur := rng.ExpFloat64() * s.ISLOutageDuration.Seconds()
				sched.Outages = append(sched.Outages, Outage{Start: t, Duration: dur, Edge: e})
				t += dur + rng.ExpFloat64()*s.ISLOutageMTBF.Seconds()
			}
		}
		sort.Slice(sched.Outages, func(a, b int) bool {
			if sched.Outages[a].Start != sched.Outages[b].Start {
				return sched.Outages[a].Start < sched.Outages[b].Start
			}
			return sched.Outages[a].Edge < sched.Outages[b].Edge
		})
	}
	if gen != nil {
		par.PutRand(gen)
	}
	return sched, nil
}

// modulatedHangs draws node i's hang renewal process with hazard
// rate base × env(t) via Lewis–Shedler thinning: candidates arrive at
// the envelope's peak rate and are accepted with probability
// env(t)/max. Recovery windows still suppress new hangs (the renewal
// clock pauses while hung), matching the unmodulated process shape.
func modulatedHangs(hangs []Hang, s Scenario, node int, rng *rand.Rand, limit float64, env *RateEnvelope) []Hang {
	maxM := env.max()
	if maxM <= 0 {
		return hangs
	}
	mtbe := s.SEFIMTBE.Seconds()
	t := 0.0
	for {
		// Next accepted hang time.
		for {
			t += rng.ExpFloat64() * mtbe / maxM
			if t >= limit {
				return hangs
			}
			if rng.Float64()*maxM < env.at(t) {
				break
			}
		}
		rec := rng.ExpFloat64() * s.SEFIRecovery.Seconds()
		hangs = append(hangs, Hang{Node: node, At: t, Recovery: rec})
		t += rec
	}
}
