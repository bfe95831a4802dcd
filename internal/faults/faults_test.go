package faults

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func scenario() Scenario {
	return Scenario{
		NodeMTTF:          4 * time.Hour,
		SEFIMTBE:          30 * time.Minute,
		SEFIRecovery:      45 * time.Second,
		ISLOutageMTBF:     20 * time.Minute,
		ISLOutageDuration: 90 * time.Second,
	}
}

func TestScenarioValidate(t *testing.T) {
	if err := (Scenario{}).Validate(); err != nil {
		t.Errorf("zero scenario must be valid (fault-free): %v", err)
	}
	if (Scenario{}).Enabled() {
		t.Error("zero scenario must not be enabled")
	}
	if !scenario().Enabled() {
		t.Error("full scenario must be enabled")
	}
	tests := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"negative mttf", func(s *Scenario) { s.NodeMTTF = -1 }},
		{"negative mtbe", func(s *Scenario) { s.SEFIMTBE = -1 }},
		{"negative recovery", func(s *Scenario) { s.SEFIRecovery = -1 }},
		{"negative outage mtbf", func(s *Scenario) { s.ISLOutageMTBF = -1 }},
		{"negative outage duration", func(s *Scenario) { s.ISLOutageDuration = -1 }},
		{"sefi without recovery", func(s *Scenario) { s.SEFIRecovery = 0 }},
		{"outage without duration", func(s *Scenario) { s.ISLOutageDuration = 0 }},
	}
	for _, tt := range tests {
		s := scenario()
		tt.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

func TestBuildRejectsBadInputs(t *testing.T) {
	if _, err := BuildModulated(Scenario{NodeMTTF: -1}, 4, 1, time.Hour, 1, nil); err == nil {
		t.Error("invalid scenario must error")
	}
	if _, err := BuildModulated(scenario(), 4, 1, 0, 1, nil); err == nil {
		t.Error("zero horizon must error")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := BuildModulated(scenario(), 8, 1, 2*time.Hour, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildModulated(scenario(), 8, 1, 2*time.Hour, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same inputs must produce an identical schedule")
	}
	c, err := BuildModulated(scenario(), 8, 1, 2*time.Hour, 43, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds must produce different schedules")
	}
}

func TestStreamsIndependentPerProcess(t *testing.T) {
	// Disabling the ISL outage process must not change node draws, and
	// vice versa: streams are forked per entity, never shared.
	full, err := BuildModulated(scenario(), 8, 1, 2*time.Hour, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	noISL := scenario()
	noISL.ISLOutageMTBF, noISL.ISLOutageDuration = 0, 0
	nodesOnly, err := BuildModulated(noISL, 8, 1, 2*time.Hour, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Deaths, nodesOnly.Deaths) || !reflect.DeepEqual(full.Hangs, nodesOnly.Hangs) {
		t.Error("node streams must be independent of the ISL process")
	}
	noNodes := scenario()
	noNodes.SEFIMTBE, noNodes.SEFIRecovery = 0, 0
	islToo, err := BuildModulated(noNodes, 8, 1, 2*time.Hour, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Outages, islToo.Outages) {
		t.Error("the ISL stream must be independent of the SEFI process")
	}
}

// deadBy returns how many of the schedule's nodes have permanently died
// by time t (seconds).
func deadBy(s Schedule, t float64) int {
	dead := 0
	for _, d := range s.Deaths {
		if d <= t {
			dead++
		}
	}
	return dead
}

func TestDeathsExponential(t *testing.T) {
	// Over many nodes, the fraction dead by t must track 1 − e^{-t/MTTF}.
	const nodes = 4000
	s := Scenario{NodeMTTF: 4 * time.Hour}
	sched, err := BuildModulated(s, nodes, 1, 8*time.Hour, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tOverT := range []float64{0.5, 1, 1.5} {
		tSec := tOverT * s.NodeMTTF.Seconds()
		want := 1 - math.Exp(-tOverT)
		got := float64(deadBy(sched, tSec)) / nodes
		if math.Abs(got-want) > 0.03 {
			t.Errorf("dead fraction at t=%.1fT: got %.3f, want %.3f", tOverT, got, want)
		}
	}
}

func TestHangsSortedBoundedAndBeforeDeath(t *testing.T) {
	sched, err := BuildModulated(scenario(), 16, 1, 4*time.Hour, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Hangs) == 0 {
		t.Fatal("a 30-minute MTBE over 16 nodes × 4 h must produce hangs")
	}
	horizon := (4 * time.Hour).Seconds()
	for i, hg := range sched.Hangs {
		if hg.At < 0 || hg.At >= horizon {
			t.Errorf("hang %d at %v outside [0, horizon)", i, hg.At)
		}
		if hg.Recovery < 0 {
			t.Errorf("hang %d negative recovery", i)
		}
		if hg.At >= sched.Deaths[hg.Node] {
			t.Errorf("hang %d scheduled after node %d death", i, hg.Node)
		}
		if i > 0 && sched.Hangs[i-1].At > hg.At {
			t.Error("hangs must be sorted by time")
		}
	}
}

func TestOutagesSortedNonOverlapping(t *testing.T) {
	sched, err := BuildModulated(scenario(), 4, 1, 6*time.Hour, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Outages) == 0 {
		t.Fatal("a 20-minute outage MTBF over 6 h must produce outages")
	}
	prevEnd := 0.0
	for i, o := range sched.Outages {
		if o.Start < prevEnd {
			t.Errorf("outage %d overlaps its predecessor", i)
		}
		if o.Duration < 0 {
			t.Errorf("outage %d negative duration", i)
		}
		prevEnd = o.Start + o.Duration
	}
}

func TestBuildNEmptyShapes(t *testing.T) {
	// Relay cells own links but no workers; leaf cells own workers but
	// no links. Both shapes — and the fully empty one — must build.
	tests := []struct {
		name         string
		nodes, edges int
	}{
		{"no nodes", 0, 3},
		{"no edges", 5, 0},
		{"empty", 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sched, err := BuildModulated(scenario(), tt.nodes, tt.edges, 2*time.Hour, 9, nil)
			if err != nil {
				t.Fatalf("BuildModulated(%d nodes, %d edges): %v", tt.nodes, tt.edges, err)
			}
			if len(sched.Deaths) != tt.nodes {
				t.Errorf("got %d deaths, want %d", len(sched.Deaths), tt.nodes)
			}
			if tt.nodes == 0 && len(sched.Hangs) != 0 {
				t.Errorf("no nodes must mean no hangs, got %d", len(sched.Hangs))
			}
			if tt.edges == 0 && len(sched.Outages) != 0 {
				t.Errorf("no edges must mean no outages, got %d", len(sched.Outages))
			}
		})
	}
	if _, err := BuildModulated(scenario(), -1, 1, time.Hour, 1, nil); err == nil {
		t.Error("negative nodes must error")
	}
	if _, err := BuildModulated(scenario(), 1, -1, time.Hour, 1, nil); err == nil {
		t.Error("negative edges must error")
	}
}

func TestEnvelopeValidate(t *testing.T) {
	var nilEnv *RateEnvelope
	if err := nilEnv.Validate(); err != nil {
		t.Errorf("nil envelope must be valid: %v", err)
	}
	tests := []struct {
		name string
		env  RateEnvelope
		ok   bool
	}{
		{"single segment", RateEnvelope{Starts: []float64{0}, Mults: []float64{2}}, true},
		{"two segments", RateEnvelope{Starts: []float64{0, 10}, Mults: []float64{1, 3}}, true},
		{"empty", RateEnvelope{}, false},
		{"length mismatch", RateEnvelope{Starts: []float64{0, 1}, Mults: []float64{1}}, false},
		{"nonzero origin", RateEnvelope{Starts: []float64{5}, Mults: []float64{1}}, false},
		{"non-ascending", RateEnvelope{Starts: []float64{0, 10, 10}, Mults: []float64{1, 2, 3}}, false},
		{"negative mult", RateEnvelope{Starts: []float64{0}, Mults: []float64{-1}}, false},
		{"inf mult", RateEnvelope{Starts: []float64{0}, Mults: []float64{math.Inf(1)}}, false},
	}
	for _, tt := range tests {
		err := tt.env.Validate()
		if tt.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tt.name, err)
		}
		if !tt.ok && err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

func TestBuildModulatedIdentity(t *testing.T) {
	// An all-ones envelope must reproduce the unmodulated (nil-envelope)
	// schedule byte for byte — the thinning path consumes extra RNG
	// draws and must not engage.
	base, err := BuildModulated(scenario(), 8, 2, 2*time.Hour, 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	ones := &RateEnvelope{Starts: []float64{0, 3600}, Mults: []float64{1, 1}}
	viaOnes, err := BuildModulated(scenario(), 8, 2, 2*time.Hour, 21, ones)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, viaOnes) {
		t.Error("all-ones envelope must match the nil envelope exactly")
	}
}

func TestBuildModulatedScalesHangRate(t *testing.T) {
	// Doubling the envelope everywhere should roughly double the hang
	// count; a zero envelope must suppress hangs entirely. Deaths and
	// outages must be untouched by modulation.
	s := scenario()
	s.NodeMTTF = 0 // no censoring, cleaner rate comparison
	base, err := BuildModulated(s, 64, 1, 8*time.Hour, 33, nil)
	if err != nil {
		t.Fatal(err)
	}
	double := &RateEnvelope{Starts: []float64{0}, Mults: []float64{2}}
	hot, err := BuildModulated(s, 64, 1, 8*time.Hour, 33, double)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(hot.Hangs)) / float64(len(base.Hangs))
	// Recovery windows pause the clock in both, so the ratio undershoots
	// 2 slightly; accept a broad band.
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("2× envelope hang ratio %.2f, want ≈2", ratio)
	}
	if !reflect.DeepEqual(base.Outages, hot.Outages) {
		t.Error("modulation must not touch outages")
	}
	zero := &RateEnvelope{Starts: []float64{0}, Mults: []float64{0}}
	cold, err := BuildModulated(s, 64, 1, 8*time.Hour, 33, zero)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Hangs) != 0 {
		t.Errorf("zero envelope must suppress hangs, got %d", len(cold.Hangs))
	}
}

func TestBuildModulatedPostconditions(t *testing.T) {
	// The modulated schedule obeys the same invariants as the base one:
	// hangs sorted, bounded, before death, non-overlapping per node.
	env := &RateEnvelope{Starts: []float64{0, 1800, 3600}, Mults: []float64{0.3, 2.5, 1}}
	sched, err := BuildModulated(scenario(), 16, 2, 4*time.Hour, 13, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Hangs) == 0 {
		t.Fatal("modulated 30-minute MTBE over 16 nodes × 4 h must produce hangs")
	}
	horizon := (4 * time.Hour).Seconds()
	lastEnd := make(map[int]float64)
	for i, hg := range sched.Hangs {
		if hg.At < 0 || hg.At >= horizon {
			t.Errorf("hang %d at %v outside [0, horizon)", i, hg.At)
		}
		if hg.At >= sched.Deaths[hg.Node] {
			t.Errorf("hang %d scheduled after node %d death", i, hg.Node)
		}
		if i > 0 && sched.Hangs[i-1].At > hg.At {
			t.Error("hangs must be sorted by time")
		}
		if hg.At < lastEnd[hg.Node] {
			t.Errorf("hang %d overlaps node %d's previous recovery", i, hg.Node)
		}
		lastEnd[hg.Node] = hg.At + hg.Recovery
	}
}

func TestDeathsCensoredAtHorizon(t *testing.T) {
	sched, err := BuildModulated(Scenario{NodeMTTF: time.Hour}, 64, 1, 30*time.Minute, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	horizon := (30 * time.Minute).Seconds()
	for i, d := range sched.Deaths {
		if d > horizon && !math.IsInf(d, 1) {
			t.Errorf("node %d death %v beyond horizon must be +Inf", i, d)
		}
	}
	if deadBy(sched, horizon) == 0 {
		t.Error("with MTTF = 2×horizon over 64 nodes, some deaths expected")
	}
}
