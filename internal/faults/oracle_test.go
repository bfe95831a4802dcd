package faults

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"sudc/internal/par"
	"sudc/internal/reliability"
)

// buildModulatedOracle is the direct reading of the determinism
// contract: a fresh par.ForkRand per node and per ISL edge, whether or
// not the stream draws. BuildModulated, which seeds one generator per
// drawing stream, must match it byte for byte.
func buildModulatedOracle(s Scenario, nodes, edges int, horizon time.Duration, seed int64, env *RateEnvelope) (Schedule, error) {
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	if nodes < 0 || edges < 0 || horizon <= 0 {
		return Schedule{}, errors.New("faults: bad shape")
	}
	if err := env.Validate(); err != nil {
		return Schedule{}, err
	}
	if env.identity() {
		env = nil
	}
	h := horizon.Seconds()
	sched := Schedule{Deaths: make([]float64, nodes)}
	for i := range sched.Deaths {
		rng := par.ForkRand(seed, i)
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
			rng := par.ForkRand(seed, islStream+e)
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
	return sched, nil
}

func TestBuildModulatedMatchesOracle(t *testing.T) {
	full := scenario()
	deaths := Scenario{NodeMTTF: full.NodeMTTF}
	hangs := Scenario{SEFIMTBE: full.SEFIMTBE, SEFIRecovery: full.SEFIRecovery}
	outages := Scenario{ISLOutageMTBF: full.ISLOutageMTBF, ISLOutageDuration: full.ISLOutageDuration}
	hot := &RateEnvelope{Starts: []float64{0, 1800, 5400}, Mults: []float64{0.5, 3, 1}}
	for _, tc := range []struct {
		name         string
		s            Scenario
		nodes, edges int
		env          *RateEnvelope
	}{
		{"fault-free", Scenario{}, 8, 2, nil},
		{"deaths", deaths, 8, 2, nil},
		{"hangs", hangs, 8, 2, nil},
		{"outages", outages, 8, 3, nil},
		{"all", full, 33, 4, nil},
		{"all-modulated", full, 33, 4, hot},
		{"hangs-modulated", hangs, 8, 0, hot},
		{"relay-cell", full, 0, 5, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, -3} {
				got, err := BuildModulated(tc.s, tc.nodes, tc.edges, 3*time.Hour, seed, tc.env)
				if err != nil {
					t.Fatal(err)
				}
				want, err := buildModulatedOracle(tc.s, tc.nodes, tc.edges, 3*time.Hour, seed, tc.env)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: schedule differs from the per-stream oracle", seed)
				}
			}
		})
	}
}

func TestBuildSeedsOnlyDrawingStreams(t *testing.T) {
	// A fault-free build allocates only its Deaths slice: no node or ISL
	// stream draws, so none is seeded. A death-only build reseeds the
	// pooled generator per node, so once the pool is warm it too
	// allocates only Deaths (AllocsPerRun truncates the mean, so a rare
	// pool miss after a GC does not show).
	for _, tc := range []struct {
		name string
		s    Scenario
		want float64
	}{
		{"fault-free", Scenario{}, 1},
		{"deaths", Scenario{NodeMTTF: time.Hour}, 1},
	} {
		got := testing.AllocsPerRun(50, func() {
			if _, err := BuildN(tc.s, 64, 4, time.Hour, 5); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.want {
			t.Errorf("%s: %v allocations per 64-node build, want %v", tc.name, got, tc.want)
		}
	}
}
