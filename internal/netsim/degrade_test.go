package netsim

// Tests for the environment-coupled degradation wiring: the identity
// fast path (zero severity is byte-identical to no degradation at
// all), the throttle/brownout accounting against the compiled
// schedule, the degraded-mode policies, and the analytic
// cross-checks that anchor experiment E9.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sudc/internal/constellation"
	"sudc/internal/degrade"
	"sudc/internal/faults"
	"sudc/internal/obs"
	"sudc/internal/obs/latency"
	"sudc/internal/obs/trace"
	"sudc/internal/reliability"
	"sudc/internal/topo"
	"sudc/internal/workload"
)

// degradeBase is the shared degraded-run scenario: a small
// constellation over two full orbits of the default EO orbit (period
// ≈ 96 min), so every run crosses at least two eclipse windows.
func degradeBase() Config {
	c := DefaultConfig(workload.Suite[0])
	c.Constellation = constellation.Constellation{Satellites: 2, FramesPerMinute: 6}
	c.Workers = 5
	c.NeedWorkers = 4
	c.BatchSize = 4
	c.BatchTimeout = 30 * time.Second
	c.Duration = 4 * time.Hour
	c.Seed = 9
	return c
}

var degradeFaults = faults.Scenario{
	NodeMTTF:          2 * time.Hour,
	SEFIMTBE:          20 * time.Minute,
	SEFIRecovery:      30 * time.Second,
	ISLOutageMTBF:     30 * time.Minute,
	ISLOutageDuration: time.Minute,
}

// exports runs one config with obs and trace attached and returns the
// stats plus both observable byte streams.
func exports(t *testing.T, c Config) (Stats, string, string) {
	t.Helper()
	reg := obs.New()
	rec := trace.New(0)
	c.Obs = reg.Scope("netsim")
	c.Trace = rec
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	return s, reg.Snapshot().String(), jsonl.String()
}

func TestDegradeZeroSeverityByteIdentical(t *testing.T) {
	// Severity 0 compiles to an identity schedule, which buildDegrade
	// drops to nil: the run must be byte-identical — stats, metric
	// snapshot, and trace export — to a run with no Degrade profile at
	// all, faults included.
	c := degradeBase()
	c.Faults = degradeFaults
	c.RetryLimit = 3
	c.ShedThreshold = 40
	refStats, refSnap, refJSONL := exports(t, c)

	d := c
	p := degrade.COTSProfile(0)
	d.Degrade = &p
	s, snap, jsonl := exports(t, d)
	if s != refStats {
		t.Errorf("zero-severity stats differ:\n ref %+v\n got %+v", refStats, s)
	}
	if snap != refSnap {
		t.Error("zero-severity metric snapshot differs from degradation-free run")
	}
	if jsonl != refJSONL {
		t.Error("zero-severity trace export differs from degradation-free run")
	}
}

func TestDegradeConfigValidation(t *testing.T) {
	c := degradeBase()
	p := degrade.COTSProfile(0.5)
	c.Degrade = &p
	if err := c.Validate(); err != nil {
		t.Fatalf("valid degraded config rejected: %v", err)
	}

	bad := c
	bad.Degrade = nil
	bad.ThrottleShed = true
	if err := bad.Validate(); err == nil {
		t.Error("ThrottleShed accepted without a Degrade profile")
	}
	bad = c
	bad.Degrade = nil
	bad.DeferInEclipse = true
	if err := bad.Validate(); err == nil {
		t.Error("DeferInEclipse accepted without a Degrade profile")
	}
	bad = c
	bad.ThrottleShed = true
	bad.ShedThreshold = 0
	if err := bad.Validate(); err == nil {
		t.Error("ThrottleShed accepted without a shed threshold")
	}
	bad = c
	badProfile := degrade.COTSProfile(2)
	bad.Degrade = &badProfile
	if err := bad.Validate(); err == nil {
		t.Error("severity 2 profile accepted")
	}
}

func TestDegradeThrottleAccountingMatchesSchedule(t *testing.T) {
	// The run's throttle/brownout accounting must reproduce the
	// compiled schedule exactly: ThrottledTime is the total time with
	// RateMult < 1, BrownoutTime the total time with PowerFrac < 1, and
	// MeanRateMult the time-average of RateMult over the horizon.
	c := degradeBase()
	p := degrade.COTSProfile(1)
	c.Degrade = &p

	sched, err := degrade.Build(p, c.Duration)
	if err != nil {
		t.Fatal(err)
	}
	var rateInt, throttled, brownout float64
	for i := range sched.Phases {
		ph := &sched.Phases[i]
		end := sched.End(i)
		if end > sched.Horizon {
			end = sched.Horizon
		}
		dur := end - ph.Start
		rateInt += dur * ph.RateMult
		if ph.RateMult < 1 {
			throttled += dur
		}
		if ph.PowerFrac < 1 {
			brownout += dur
		}
	}
	if throttled == 0 || brownout == 0 {
		t.Fatalf("schedule exercises nothing: throttled=%v brownout=%v", throttled, brownout)
	}

	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ThrottledTime.Seconds(); got < throttled-1e-6 || got > throttled+1e-6 {
		t.Errorf("ThrottledTime = %v s, schedule says %v s", got, throttled)
	}
	if got := s.BrownoutTime.Seconds(); got < brownout-1e-6 || got > brownout+1e-6 {
		t.Errorf("BrownoutTime = %v s, schedule says %v s", got, brownout)
	}
	want := rateInt / sched.Horizon
	if got := s.MeanRateMult; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("MeanRateMult = %v, schedule integral says %v", got, want)
	}
	conserve(t, s)
}

func TestDegradeAvailabilityMonotoneInSeverity(t *testing.T) {
	// With deaths-only faults the death schedule is severity-invariant
	// (no SEFI draws, so the fault envelope never thins a stream) and
	// the browned worker set grows pointwise with severity, so per-run
	// availability must be monotonically non-increasing in severity —
	// exactly, not within a tolerance.
	c := degradeBase()
	c.Faults = faults.Scenario{NodeMTTF: 4 * time.Hour}
	prev := make([]float64, 0, 8)
	for i, sev := range []float64{0, 0.25, 0.5, 0.75, 1} {
		cc := c
		p := degrade.COTSProfile(sev)
		cc.Degrade = &p
		all, err := RunReplicas(cc, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			for _, s := range all {
				prev = append(prev, s.Availability)
			}
			continue
		}
		for r, s := range all {
			if s.Availability > prev[r] {
				t.Errorf("severity %v replica %d: availability %v exceeds previous severity's %v",
					sev, r, s.Availability, prev[r])
			}
			prev[r] = s.Availability
		}
	}
}

func TestDegradeZeroSeverityMatchesAnalyticAvailability(t *testing.T) {
	// E9's anchor row: at severity 0 the degraded sweep must reproduce
	// E7's analytic binomial cross-check — replica-mean availability
	// within 2% of reliability.MeanAvailability at the same
	// (n, need, horizon/MTTF).
	c := degradeBase()
	c.Duration = 2 * time.Hour
	c.Faults = faults.Scenario{NodeMTTF: 4 * time.Hour}
	p := degrade.COTSProfile(0)
	c.Degrade = &p
	all, err := RunReplicas(c, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range all {
		sum += s.Availability
	}
	measured := sum / float64(len(all))
	analytic, err := reliability.MeanAvailability(c.Workers, c.NeedWorkers,
		c.Duration.Seconds()/c.Faults.NodeMTTF.Seconds())
	if err != nil {
		t.Fatal(err)
	}
	if diff := measured - analytic; diff < -0.02 || diff > 0.02 {
		t.Errorf("measured availability %v vs analytic %v: |Δ| exceeds 2%%", measured, analytic)
	}
}

func TestDegradeBrownoutTraceAndIntervals(t *testing.T) {
	// A full-severity run must leave a complete environmental audit
	// trail: throttle phase events with the active multiplier, paired
	// brownout start/end events with the parked worker count and a
	// cause tag, and DegradedIntervals must recover both window kinds.
	c := degradeBase()
	p := degrade.COTSProfile(1)
	c.Degrade = &p
	rec := trace.New(0)
	c.Trace = rec
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.BrownoutTime == 0 {
		t.Fatal("no brownout time over two orbits")
	}
	events := rec.Events()
	var throttles, starts, ends int
	for _, e := range events {
		switch e.Kind {
		case trace.Throttle:
			throttles++
			if e.Mult >= 1 || e.Mult <= 0 {
				t.Errorf("throttle event with multiplier %v", e.Mult)
			}
		case trace.BrownoutStart:
			starts++
			if e.N <= 0 {
				t.Errorf("brownout start parked %d workers", e.N)
			}
			if !strings.HasPrefix(e.Cause, "brownout#") {
				t.Errorf("brownout cause %q lacks attribution tag", e.Cause)
			}
		case trace.BrownoutEnd:
			ends++
		}
	}
	if throttles == 0 || starts == 0 {
		t.Fatalf("degradation events missing: throttles=%d brownouts=%d", throttles, starts)
	}
	if ends != starts && ends != starts-1 {
		t.Errorf("brownout windows unbalanced: %d starts, %d ends", starts, ends)
	}

	horizon := c.Duration.Seconds()
	var throttleIvs, brownIvs int
	for _, iv := range latency.DegradedIntervals(events, horizon) {
		if iv.Start >= iv.End || iv.End > horizon {
			t.Errorf("malformed interval %+v", iv)
		}
		switch iv.Kind {
		case "throttle":
			throttleIvs++
		case "brownout":
			brownIvs++
		}
	}
	if throttleIvs == 0 || brownIvs == 0 {
		t.Errorf("DegradedIntervals recovered throttle=%d brownout=%d windows", throttleIvs, brownIvs)
	}
}

func TestDegradeDeferInEclipse(t *testing.T) {
	// With large batches the timeout path fires on partial batches;
	// DeferInEclipse pushes those timeouts past the eclipse window, so
	// deferred dispatches must be counted and frames still conserved.
	c := degradeBase()
	c.BatchSize = 64
	c.BatchTimeout = 20 * time.Second
	p := degrade.COTSProfile(1)
	c.Degrade = &p
	c.DeferInEclipse = true
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.BatchesDeferred == 0 {
		t.Error("no batch dispatches deferred across two eclipse windows")
	}
	conserve(t, s)

	base := c
	base.DeferInEclipse = false
	bs, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if bs.BatchesDeferred != 0 {
		t.Errorf("deferral disabled but %d batches deferred", bs.BatchesDeferred)
	}
	conserve(t, bs)
}

func TestDegradeThrottleShed(t *testing.T) {
	// Throttle-aware shedding scales the shed threshold down with the
	// active rate multiplier, so an overloaded throttled run sheds at
	// least as much — and here strictly more — than with the static
	// threshold.
	c := degradeBase()
	c.Constellation = constellation.Constellation{Satellites: 4, FramesPerMinute: 60}
	c.Workers = 2
	c.NeedWorkers = 2
	c.ShedThreshold = 50
	c.Duration = 2 * time.Hour
	p := degrade.COTSProfile(1)
	c.Degrade = &p

	static, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	c.ThrottleShed = true
	scaled, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.FramesShed <= static.FramesShed {
		t.Errorf("throttle-aware shedding shed %d frames, static threshold %d — want strictly more",
			scaled.FramesShed, static.FramesShed)
	}
	conserve(t, static)
	conserve(t, scaled)
}

func TestDegradeStarTopologyMatchesLegacy(t *testing.T) {
	// A degraded config without a Topology must run exactly as the
	// degraded explicit Star graph, faults included — both thread the
	// same degradation schedule through the compiled cell.
	legacy := DefaultConfig(workload.Suite[0])
	legacy.Duration = 4 * time.Hour
	legacy.Faults = topoFaults
	legacy.RetryLimit = 4
	legacy.ShedThreshold = 200
	p := degrade.COTSProfile(0.75)
	legacy.Degrade = &p

	star := TopologyConfig(workload.Suite[0], topo.Star(legacy.Constellation.Satellites, legacy.Workers))
	star.Duration = legacy.Duration
	star.Faults = legacy.Faults
	star.RetryLimit = legacy.RetryLimit
	star.ShedThreshold = legacy.ShedThreshold
	star.Degrade = legacy.Degrade

	lreg, treg := obs.New(), obs.New()
	legacy.Obs = lreg
	star.Obs = treg
	ls, err := Run(legacy)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Run(star)
	if err != nil {
		t.Fatal(err)
	}
	if ls != ts {
		t.Errorf("degraded stats differ:\n nil topology %+v\n star         %+v", ls, ts)
	}
	if l, s := lreg.Snapshot().String(), treg.Snapshot().String(); l != s {
		t.Error("degraded observability snapshots differ between nil Topology and Star topology")
	}
	if ts.ThrottledTime == 0 || ts.BrownoutTime == 0 {
		t.Errorf("degradation not exercised: %+v", ts)
	}
	conserve(t, ts)
}
