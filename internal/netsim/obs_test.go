package netsim

import (
	"math"
	"testing"
	"time"

	"sudc/internal/constellation"
	"sudc/internal/faults"
	"sudc/internal/obs"
)

// outageConfig is a small configuration whose ISL spends most of the run
// down, so head-of-line frames accumulate many failed attempts.
func outageConfig(t *testing.T) Config {
	t.Helper()
	c := DefaultConfig(mustApp(t, "Flood Detection"))
	c.Constellation = constellation.Constellation{Satellites: 2, FramesPerMinute: 6}
	c.Duration = time.Hour
	c.Faults = faults.Scenario{
		ISLOutageMTBF:     10 * time.Minute,
		ISLOutageDuration: 20 * time.Minute,
	}
	return c
}

func TestUnlimitedRetriesSaturateBackoffAtCap(t *testing.T) {
	// Regression for the retry-backoff growth path: with RetryLimit 0 a
	// head-of-line frame can fail hundreds of times across a long outage,
	// and the exponential 2^(tries-1) must saturate at the cap instead of
	// overflowing float64. A tiny base and cap force many hundreds of
	// attempts per outage.
	c := outageConfig(t)
	c.RetryLimit = 0 // unlimited
	c.RetryBackoff = time.Millisecond
	c.RetryBackoffCap = 100 * time.Millisecond
	reg := obs.New()
	c.Obs = reg

	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.FramesRetried < 2000 {
		t.Errorf("long outages with a 100ms cap must retry thousands of times, got %d", s.FramesRetried)
	}
	if s.FramesLost != 0 {
		t.Errorf("unlimited retries must not lose frames, lost %d", s.FramesLost)
	}
	if got := s.FramesProcessed + s.Backlog + s.FramesShed + s.FramesLost; got != s.FramesGenerated {
		t.Errorf("conservation under saturated retries: %d ≠ %d generated", got, s.FramesGenerated)
	}
	if s.Availability < 0 || s.Availability > 1 || math.IsNaN(s.Availability) {
		t.Errorf("availability corrupted: %v", s.Availability)
	}
	if s.MeanLatency < 0 || s.MeanLatency > c.Duration {
		t.Errorf("latency corrupted by backoff math: mean %v", s.MeanLatency)
	}

	// Every observed delay must stay within [base, cap]: a single +Inf or
	// NaN would show up as a corrupted histogram extremum.
	h := findHistogram(t, reg, "retry/backoff_s")
	if h.Count < 2000 {
		t.Errorf("backoff histogram saw %d delays, want one per retry ≥ 2000", h.Count)
	}
	base, cap := c.RetryBackoff.Seconds(), c.RetryBackoffCap.Seconds()
	if h.Min < base || h.Max > cap {
		t.Errorf("backoff delays [%v, %v] escape [base=%v, cap=%v]", h.Min, h.Max, base, cap)
	}
	if h.Max != cap {
		t.Errorf("hundreds of attempts must reach the cap: max %v, cap %v", h.Max, cap)
	}
}

func TestShedThresholdEdges(t *testing.T) {
	// Pin both edge semantics: 0 disables shedding entirely (the zero
	// value stays backward compatible), and ShedAll is an explicit
	// threshold of zero that shreds every queued frame.
	overload := func(shed int) Stats {
		c := DefaultConfig(mustApp(t, "Panoptic Segmentation"))
		c.Duration = 30 * time.Minute
		c.ShedThreshold = shed
		s, err := Run(c)
		if err != nil {
			t.Fatalf("shed=%d: %v", shed, err)
		}
		return s
	}

	disabled := overload(0)
	if disabled.FramesShed != 0 {
		t.Errorf("ShedThreshold 0 must disable shedding, shed %d", disabled.FramesShed)
	}
	if disabled.Backlog == 0 {
		t.Error("overload without shedding must build a backlog")
	}

	all := overload(ShedAll)
	if all.FramesProcessed != 0 {
		t.Errorf("ShedAll must starve the workers: processed %d", all.FramesProcessed)
	}
	if all.FramesShed == 0 {
		t.Error("ShedAll must shed every frame that lands")
	}
	if all.MaxInputQueue > 1 {
		t.Errorf("ShedAll must keep the queue empty: peak %d", all.MaxInputQueue)
	}
	if got := all.FramesProcessed + all.Backlog + all.FramesShed + all.FramesLost; got != all.FramesGenerated {
		t.Errorf("conservation under ShedAll: %d ≠ %d generated", got, all.FramesGenerated)
	}
}

func TestValidateAcceptsBoundaryValues(t *testing.T) {
	// Each boundary must validate AND behave correctly when simulated —
	// acceptance alone would not catch off-by-one handling inside Run.
	t.Run("insight fraction 0", func(t *testing.T) {
		c := DefaultConfig(mustApp(t, "Air Pollution"))
		c.InsightFraction = 0
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		s, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if s.InsightsDownlinked != 0 {
			t.Errorf("fraction 0 must downlink nothing, got %d", s.InsightsDownlinked)
		}
	})
	t.Run("insight fraction 1", func(t *testing.T) {
		c := DefaultConfig(mustApp(t, "Air Pollution"))
		c.InsightFraction = 1
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		s, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if s.InsightsDownlinked != s.FramesProcessed {
			t.Errorf("fraction 1 must downlink every processed frame: %d of %d",
				s.InsightsDownlinked, s.FramesProcessed)
		}
	})
	t.Run("need equals workers", func(t *testing.T) {
		c := DefaultConfig(mustApp(t, "Air Pollution"))
		c.NeedWorkers = c.Workers
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		s, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if s.Availability != 1 {
			t.Errorf("fault-free run with need == workers must be fully available, got %v", s.Availability)
		}
	})
	t.Run("backoff equals cap", func(t *testing.T) {
		c := outageConfig(t)
		c.RetryBackoff = 50 * time.Millisecond
		c.RetryBackoffCap = 50 * time.Millisecond
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		c.Obs = reg
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
		// With base == cap every delay is exactly the cap, from the very
		// first attempt.
		h := findHistogram(t, reg, "retry/backoff_s")
		if h.Count == 0 {
			t.Fatal("outages must produce retries")
		}
		if want := c.RetryBackoffCap.Seconds(); h.Min != want || h.Max != want {
			t.Errorf("base == cap must pin every delay to %v, got [%v, %v]", want, h.Min, h.Max)
		}
	})
}

func TestObsStreamRecordsFaultedRun(t *testing.T) {
	c := faultConfig(t)
	c.Faults.ISLOutageMTBF = 20 * time.Minute
	c.Faults.ISLOutageDuration = 2 * time.Minute
	run := func() (Stats, obs.Snapshot) {
		reg := obs.New()
		cc := c
		cc.Obs = reg
		s, err := Run(cc)
		if err != nil {
			t.Fatal(err)
		}
		return s, reg.Snapshot()
	}
	s, snap := run()

	counters := map[string]int64{}
	for _, cv := range snap.Counters {
		counters[cv.Name] = cv.Value
	}
	for name, want := range map[string]int{
		"frames/generated": s.FramesGenerated,
		"frames/processed": s.FramesProcessed,
		"frames/retried":   s.FramesRetried,
	} {
		if counters[name] != int64(want) {
			t.Errorf("counter %s = %d, want %d from stats", name, counters[name], want)
		}
	}
	if counters["events/frame_ready"] != int64(s.FramesGenerated) {
		t.Errorf("events/frame_ready = %d, want %d", counters["events/frame_ready"], s.FramesGenerated)
	}

	series := map[string]int{}
	for _, sv := range snap.Series {
		series[sv.Name] = len(sv.Points)
	}
	wantPoints := int(c.Duration / sampleEvery)
	for _, name := range []string{"queue/depth", "isl/sats-sudc", "backlog", "availability", "workers/effective", "retries", "shed"} {
		if series[name] != wantPoints {
			t.Errorf("series %s has %d points, want %d (one per simulated minute)", name, series[name], wantPoints)
		}
	}

	// The retried and shed series sample per-interval rates, not the
	// cumulative counters: the samples must sum back to the run totals
	// (and would wildly overshoot them if recorded cumulatively).
	if s.FramesRetried == 0 {
		t.Fatal("outage run must retry frames")
	}
	for name, want := range map[string]int{"retries": s.FramesRetried, "shed": s.FramesShed} {
		var sum float64
		for _, sv := range snap.Series {
			if sv.Name == name {
				for _, p := range sv.Points {
					sum += p.V
				}
			}
		}
		if int(sum) != want {
			t.Errorf("series %s rate samples sum to %v, want cumulative total %d", name, sum, want)
		}
	}

	// The metrics themselves must honor the determinism contract.
	if _, snap2 := run(); snap2.String() != snap.String() {
		t.Error("identical runs must produce byte-identical snapshots")
	}

	// A registry-free run must be unaffected (and remains the fast path).
	plain, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if plain != s {
		t.Error("attaching a registry must not change simulation results")
	}
}

func findHistogram(t *testing.T, reg *obs.Registry, name string) obs.HistogramValue {
	t.Helper()
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("histogram %q not recorded", name)
	return obs.HistogramValue{}
}
