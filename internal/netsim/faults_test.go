package netsim

import (
	"reflect"
	"testing"
	"time"

	"sudc/internal/constellation"
	"sudc/internal/faults"
)

// faultConfig is a small, fast configuration with a few workers and
// permanent deaths likely within the run.
func faultConfig(t *testing.T) Config {
	t.Helper()
	c := DefaultConfig(mustApp(t, "Air Pollution"))
	c.Constellation = constellation.Constellation{Satellites: 2, FramesPerMinute: 6}
	c.Workers = 4
	c.NeedWorkers = 4
	c.BatchSize = 4
	c.BatchTimeout = 30 * time.Second
	c.Duration = 2 * time.Hour
	c.Faults = faults.Scenario{NodeMTTF: time.Hour}
	c.Seed = 7
	return c
}

func TestFaultFreeRunHasCleanFaultStats(t *testing.T) {
	s, err := Run(DefaultConfig(mustApp(t, "Flood Detection")))
	if err != nil {
		t.Fatal(err)
	}
	if s.Availability != 1 {
		t.Errorf("fault-free availability = %v, want 1", s.Availability)
	}
	if s.DegradedFraction != 0 {
		t.Errorf("fault-free degraded fraction = %v, want 0", s.DegradedFraction)
	}
	if s.FramesRetried+s.FramesRedispatched+s.FramesShed+s.FramesLost != 0 {
		t.Errorf("fault-free run must not retry/redispatch/shed/lose frames: %+v", s)
	}
	if s.WorkerDowntime != 0 || s.ISLDowntime != 0 {
		t.Errorf("fault-free run must report zero downtime: %+v", s)
	}
}

func TestNodeDeathsDegradeAvailability(t *testing.T) {
	c := faultConfig(t)
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// With MTTF = half the run, deaths are near-certain across 4 nodes.
	if s.Availability >= 1 {
		t.Errorf("deaths must reduce availability, got %v", s.Availability)
	}
	if s.DegradedFraction <= 0 {
		t.Errorf("deaths must leave a degraded period, got %v", s.DegradedFraction)
	}
	if s.WorkerDowntime <= 0 {
		t.Error("dead workers must accumulate downtime")
	}
}

func TestSparesRaiseAvailability(t *testing.T) {
	// Average availability over replicas, with and without spare nodes.
	mean := func(workers int) float64 {
		c := faultConfig(t)
		c.Workers = workers // NeedWorkers stays 4: extras are spares
		all, err := RunReplicas(c, 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, s := range all {
			sum += s.Availability
		}
		return sum / float64(len(all))
	}
	bare, spared := mean(4), mean(7)
	if spared <= bare {
		t.Errorf("3 spares must raise mean availability: %v → %v", bare, spared)
	}
}

func TestDeadWorkerBatchesRedispatch(t *testing.T) {
	// Saturated workers + aggressive deaths: stranded batches must be
	// re-dispatched, and conservation must hold including losses.
	c := DefaultConfig(mustApp(t, "Flood Detection"))
	c.Duration = time.Hour
	c.Faults = faults.Scenario{NodeMTTF: 30 * time.Minute}
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.FramesRedispatched == 0 {
		t.Error("busy workers dying mid-batch must strand frames for re-dispatch")
	}
	if got := s.FramesProcessed + s.Backlog + s.FramesShed + s.FramesLost; got != s.FramesGenerated {
		t.Errorf("conservation with faults: %d ≠ %d generated", got, s.FramesGenerated)
	}
}

func TestSEFIHangsDelayButDoNotDrop(t *testing.T) {
	c := DefaultConfig(mustApp(t, "Air Pollution"))
	c.Duration = time.Hour
	c.Faults = faults.Scenario{SEFIMTBE: 10 * time.Minute, SEFIRecovery: time.Minute}
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.WorkerDowntime <= 0 {
		t.Error("SEFI hangs must accumulate worker downtime")
	}
	if s.DegradedFraction <= 0 {
		t.Error("SEFI hangs must show as degraded time")
	}
	if s.FramesLost != 0 || s.FramesShed != 0 {
		t.Errorf("hangs alone must not lose or shed frames: %+v", s)
	}
	if got := s.FramesProcessed + s.Backlog; got != s.FramesGenerated {
		t.Errorf("conservation under hangs: %d ≠ %d", got, s.FramesGenerated)
	}
	ff := c
	ff.Faults = faults.Scenario{}
	base, err := Run(ff)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanLatency <= base.MeanLatency {
		t.Errorf("hangs must raise mean latency: %v vs fault-free %v", s.MeanLatency, base.MeanLatency)
	}
}

func TestISLOutagesRetryWithBackoff(t *testing.T) {
	c := DefaultConfig(mustApp(t, "Flood Detection"))
	c.Duration = time.Hour
	c.Faults = faults.Scenario{ISLOutageMTBF: 5 * time.Minute, ISLOutageDuration: 30 * time.Second}
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.FramesRetried == 0 {
		t.Error("outages on a busy ISL must force retries")
	}
	if s.ISLDowntime <= 0 {
		t.Error("outages must accumulate ISL downtime")
	}
	if got := s.FramesProcessed + s.Backlog + s.FramesLost; got != s.FramesGenerated {
		t.Errorf("conservation under outages: %d ≠ %d", got, s.FramesGenerated)
	}
}

func TestRetryLimitLosesFrames(t *testing.T) {
	c := DefaultConfig(mustApp(t, "Flood Detection"))
	c.Duration = time.Hour
	c.RetryLimit = 1
	c.Faults = faults.Scenario{ISLOutageMTBF: 10 * time.Minute, ISLOutageDuration: 3 * time.Minute}
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.FramesLost == 0 {
		t.Error("long outages with a 1-retry budget must lose frames")
	}
}

func TestLoadSheddingDropsLowestValue(t *testing.T) {
	// Overload Panoptic Segmentation and cap the queue: shedding must
	// kick in, keep the queue bounded, and preferentially keep insights.
	c := DefaultConfig(mustApp(t, "Panoptic Segmentation"))
	c.Duration = time.Hour
	c.ShedThreshold = 64
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.FramesShed == 0 {
		t.Fatal("an overloaded SµDC with a shed threshold must shed frames")
	}
	if s.MaxInputQueue > c.ShedThreshold+1 {
		t.Errorf("shedding must bound the queue: peak %d > threshold %d", s.MaxInputQueue, c.ShedThreshold)
	}
	if got := s.FramesProcessed + s.Backlog + s.FramesShed; got != s.FramesGenerated {
		t.Errorf("conservation under shedding: %d ≠ %d", got, s.FramesGenerated)
	}
	// Shedding drops the lowest analyzer values first, so the processed
	// stream is enriched in insights relative to the raw fraction.
	enriched := float64(s.InsightsDownlinked) / float64(s.FramesProcessed)
	if enriched <= c.InsightFraction {
		t.Errorf("value-aware shedding must enrich insights: got %.3f, raw %.3f",
			enriched, c.InsightFraction)
	}
}

func TestFaultedRunDeterministicWithSeed(t *testing.T) {
	c := faultConfig(t)
	c.Faults.SEFIMTBE = 20 * time.Minute
	c.Faults.SEFIRecovery = 30 * time.Second
	c.Faults.ISLOutageMTBF = 30 * time.Minute
	c.Faults.ISLOutageDuration = time.Minute
	s1, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("same seed must reproduce identical stats under faults")
	}
}

func TestFaultScheduleIndependentOfArrivalStream(t *testing.T) {
	// The fault schedule forks its own streams from Seed: two runs with
	// the same seed but different constellations must see the same
	// worker deaths (observable through availability).
	a := faultConfig(t)
	b := faultConfig(t)
	b.Constellation.Satellites = 1
	sa, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Availability != sb.Availability {
		t.Errorf("availability must depend only on the fault schedule: %v vs %v",
			sa.Availability, sb.Availability)
	}
}

func TestRunReplicasInvariantUnderWorkerCount(t *testing.T) {
	c := faultConfig(t)
	c.Duration = 30 * time.Minute
	ref, err := RunReplicas(c, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		got, err := RunReplicas(c, 16, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: replica stats differ from workers=1", w)
		}
	}
	if _, err := RunReplicas(c, 0, 1); err == nil {
		t.Error("zero replicas must error")
	}
	bad := c
	bad.Workers = 0
	if _, err := RunReplicas(bad, 4, 1); err == nil {
		t.Error("invalid config must error")
	}
}

func TestValidateFaultFields(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad scenario", func(c *Config) { c.Faults.NodeMTTF = -1 }},
		{"sefi without recovery", func(c *Config) { c.Faults.SEFIMTBE = time.Hour }},
		{"outage without duration", func(c *Config) { c.Faults.ISLOutageMTBF = time.Hour }},
		{"negative need", func(c *Config) { c.NeedWorkers = -1 }},
		{"need beyond workers", func(c *Config) { c.NeedWorkers = c.Workers + 1 }},
		{"negative retries", func(c *Config) { c.RetryLimit = -1 }},
		{"shed below ShedAll", func(c *Config) { c.ShedThreshold = ShedAll - 1 }},
	}
	for _, tt := range tests {
		c := DefaultConfig(mustApp(t, "Air Pollution"))
		tt.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tt.name)
		}
		if _, err := Run(c); err == nil {
			t.Errorf("%s: Run must reject invalid config", tt.name)
		}
	}
	// Spare-aware accounting is valid configuration, not an error.
	c := DefaultConfig(mustApp(t, "Air Pollution"))
	c.NeedWorkers = c.Workers - 1
	if err := c.Validate(); err != nil {
		t.Errorf("spares (need < workers) must validate: %v", err)
	}
}
