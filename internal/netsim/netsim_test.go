package netsim

import (
	"testing"
	"time"

	"sudc/internal/constellation"
	"sudc/internal/units"
	"sudc/internal/workload"
)

func mustApp(t *testing.T, name string) workload.App {
	t.Helper()
	a, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestValidate(t *testing.T) {
	good := DefaultConfig(workload.Suite[0])
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad constellation", func(c *Config) { c.Constellation.Satellites = 0 }},
		{"bad app", func(c *Config) { c.App.GPUPower = 0 }},
		{"no ISL", func(c *Config) { c.ISLRate = 0 }},
		{"no workers", func(c *Config) { c.Workers = 0 }},
		{"zero batch", func(c *Config) { c.BatchSize = 0 }},
		{"zero timeout", func(c *Config) { c.BatchTimeout = 0 }},
		{"bad insight", func(c *Config) { c.InsightFraction = 1.5 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
	}
	for _, tt := range tests {
		c := DefaultConfig(workload.Suite[0])
		tt.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tt.name)
		}
		if _, err := Run(c); err == nil {
			t.Errorf("%s: Run must reject invalid config", tt.name)
		}
	}
}

func TestConservation(t *testing.T) {
	s, err := Run(DefaultConfig(mustApp(t, "Flood Detection")))
	if err != nil {
		t.Fatal(err)
	}
	if s.FramesGenerated <= 0 {
		t.Fatal("no frames generated")
	}
	if s.FramesProcessed+s.Backlog != s.FramesGenerated {
		t.Errorf("conservation: %d processed + %d backlog != %d generated",
			s.FramesProcessed, s.Backlog, s.FramesGenerated)
	}
	if s.InsightsDownlinked > s.FramesProcessed {
		t.Error("cannot downlink more insights than processed frames")
	}
}

func TestExpectedFrameCount(t *testing.T) {
	// 64 satellites × 6 frames/min × 120 min ≈ 46080 frames (±jitter).
	s, err := Run(DefaultConfig(mustApp(t, "Air Pollution")))
	if err != nil {
		t.Fatal(err)
	}
	want := 64 * 6 * 120
	if s.FramesGenerated < want*95/100 || s.FramesGenerated > want*105/100 {
		t.Errorf("generated %d frames, want ≈%d", s.FramesGenerated, want)
	}
}

func TestFourKWKeepsUpForMostApps(t *testing.T) {
	// The Table III story replayed through the simulator: one 4 kW SµDC
	// keeps up for every app except Panoptic Segmentation.
	for _, app := range workload.Suite {
		s, err := Run(DefaultConfig(app))
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		wantKeptUp := app.Name != "Panoptic Segmentation"
		if s.KeptUp != wantKeptUp {
			t.Errorf("%s: keptUp = %v (backlog %d of %d), want %v",
				app.Name, s.KeptUp, s.Backlog, s.FramesGenerated, wantKeptUp)
		}
	}
}

func TestFourSuDCsHandlePanoptic(t *testing.T) {
	// Table III: Panoptic Segmentation needs 4 SµDCs. Simulate its share:
	// one SµDC serving a quarter of the constellation keeps up.
	app := mustApp(t, "Panoptic Segmentation")
	c := DefaultConfig(app)
	c.Constellation.Satellites = 16 // 64 ÷ 4
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !s.KeptUp {
		t.Errorf("a quarter constellation must be sustainable: backlog %d of %d",
			s.Backlog, s.FramesGenerated)
	}
}

func TestOverloadedSuDCShowsBacklog(t *testing.T) {
	app := mustApp(t, "Panoptic Segmentation")
	s, err := Run(DefaultConfig(app))
	if err != nil {
		t.Fatal(err)
	}
	// Overload: the backlog is a large fraction of generated frames and
	// workers run flat out.
	if float64(s.Backlog) < 0.3*float64(s.FramesGenerated) {
		t.Errorf("expected a growing backlog, got %d of %d", s.Backlog, s.FramesGenerated)
	}
	if s.WorkerUtilization < 0.95 {
		t.Errorf("overloaded workers should be ≈100%% busy, got %.2f", s.WorkerUtilization)
	}
}

func TestBatchingLatencyMinutesAtLowRate(t *testing.T) {
	// Paper §IV-A: "it may take up to several minutes for an
	// energy-minimizing batch size to be reached" when frames trickle in.
	app := mustApp(t, "Air Pollution")
	c := DefaultConfig(app)
	c.Constellation.Satellites = 1 // one EO satellite: 6 frames/min
	c.BatchSize = 32
	c.BatchTimeout = 10 * time.Minute
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanLatency < time.Minute {
		t.Errorf("low-rate batching latency = %v, want minutes", s.MeanLatency)
	}
	if s.P95Latency < s.MeanLatency {
		t.Error("P95 latency must be at least the mean")
	}
}

func TestUndersizedISLQueues(t *testing.T) {
	app := mustApp(t, "Flood Detection")
	c := DefaultConfig(app)
	// Offered load: 64 sats × 0.1 f/s × 45 Mpix × 16 bit = 4.6 Gbit/s.
	c.ISLRate = units.GbpsOf(2) // half the offered load
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.ISLUtilization < 0.95 {
		t.Errorf("starved ISL should be saturated, util = %.2f", s.ISLUtilization)
	}
	if s.KeptUp {
		t.Error("an undersized ISL must leave a backlog")
	}
}

func TestFilteringReducesLoad(t *testing.T) {
	app := mustApp(t, "Flood Detection")
	base := DefaultConfig(app)
	filt := DefaultConfig(app)
	filt.Constellation.FilterRate = 2.0 / 3
	sBase, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sFilt, err := Run(filt)
	if err != nil {
		t.Fatal(err)
	}
	if sFilt.ISLUtilization >= sBase.ISLUtilization {
		t.Error("edge filtering must reduce ISL utilization")
	}
	if sFilt.WorkerUtilization >= sBase.WorkerUtilization {
		t.Error("edge filtering must reduce compute utilization")
	}
	if float64(sFilt.ComputeEnergy) >= float64(sBase.ComputeEnergy) {
		t.Error("edge filtering must reduce compute energy")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	c := DefaultConfig(mustApp(t, "Crop Monitoring"))
	s1, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := Run(c)
	if s1 != s2 {
		t.Error("same seed must reproduce identical stats")
	}
	c.Seed = 2
	s3, _ := Run(c)
	if s3.FramesGenerated == 0 {
		t.Error("different seed must still simulate")
	}
}

func TestInsightFraction(t *testing.T) {
	c := DefaultConfig(mustApp(t, "Air Pollution"))
	c.InsightFraction = 0.5
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(s.InsightsDownlinked) / float64(s.FramesProcessed)
	if got < 0.45 || got > 0.55 {
		t.Errorf("insight fraction = %.3f, want ≈0.5", got)
	}
	c.InsightFraction = 0
	s0, _ := Run(c)
	if s0.InsightsDownlinked != 0 {
		t.Error("zero insight fraction must downlink nothing")
	}
}

func TestUtilizationBounds(t *testing.T) {
	for _, app := range workload.Suite {
		s, err := Run(DefaultConfig(app))
		if err != nil {
			t.Fatal(err)
		}
		if s.ISLUtilization < 0 || s.ISLUtilization > 1 ||
			s.WorkerUtilization < 0 || s.WorkerUtilization > 1 {
			t.Errorf("%s: utilizations out of bounds: %+v", app.Name, s)
		}
		if s.ComputeEnergy < 0 {
			t.Errorf("%s: negative energy", app.Name)
		}
	}
}

func TestSmallConstellation(t *testing.T) {
	c := DefaultConfig(mustApp(t, "Traffic Monitoring"))
	c.Constellation = constellation.Constellation{Satellites: 2, FramesPerMinute: 6}
	c.Duration = 30 * time.Minute
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !s.KeptUp {
		t.Error("a 4 kW SµDC trivially keeps up with 2 satellites")
	}
}
