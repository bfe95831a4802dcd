package accel

import (
	"testing"

	"sudc/internal/workload"
)

func TestLayerTimingBounds(t *testing.T) {
	l := conv(256, 256, 3, 28, 1)
	tm, err := refConfig.LayerTiming(l)
	if err != nil {
		t.Fatal(err)
	}
	if tm.ComputeCycles <= 0 || tm.DRAMCycles <= 0 {
		t.Fatal("cycle counts must be positive")
	}
	if tm.Cycles() < tm.ComputeCycles || tm.Cycles() < tm.DRAMCycles {
		t.Error("bounding cycles must be the max of compute and DRAM")
	}
	// Compute bound: MACs / (3×24 mapped PEs).
	want := float64(l.MACs()) / (3 * 24)
	if tm.ComputeCycles != want {
		t.Errorf("compute cycles = %v, want %v", tm.ComputeCycles, want)
	}
}

func TestLayerTimingErrors(t *testing.T) {
	if _, err := (Config{}).LayerTiming(conv(8, 8, 3, 8, 1)); err == nil {
		t.Error("invalid config must error")
	}
	if _, err := refConfig.LayerTiming(workload.Layer{}); err == nil {
		t.Error("invalid layer must error")
	}
}

func TestSecondsDefaultClock(t *testing.T) {
	tm := LayerTiming{ComputeCycles: DefaultClockHz}
	if got := tm.Seconds(0); got != 1 {
		t.Errorf("default clock Seconds = %v, want 1", got)
	}
	if got := tm.Seconds(2 * DefaultClockHz); got != 0.5 {
		t.Errorf("2× clock Seconds = %v, want 0.5", got)
	}
}

// networkLatency returns the single-inference latency of the network on
// one (non-pipelined) instance of c, in seconds: the sum of its layer
// times.
func networkLatency(c Config, n workload.Network, clockHz float64) (float64, error) {
	var total float64
	for _, l := range n.Layers {
		tm, err := c.LayerTiming(l)
		if err != nil {
			return 0, err
		}
		total += tm.Seconds(clockHz)
	}
	return total, nil
}

func TestNetworkLatencyReasonable(t *testing.T) {
	// ResNet-50 (~4.1 GMACs) on a 72-PE design at 500 MHz: compute bound
	// alone is ≈0.11 s; DRAM stalls can add more.
	lat, err := networkLatency(refConfig, workload.ResNet50(), DefaultClockHz)
	if err != nil {
		t.Fatal(err)
	}
	if lat < 0.05 || lat > 2 {
		t.Errorf("ResNet-50 latency = %.3f s, want O(0.1 s) on a small array", lat)
	}
	// A wider array is faster.
	wide := refConfig
	wide.PEX = 64
	latWide, err := networkLatency(wide, workload.ResNet50(), DefaultClockHz)
	if err != nil {
		t.Fatal(err)
	}
	if latWide >= lat {
		t.Errorf("wider array latency %.3f s must beat %.3f s", latWide, lat)
	}
}

func TestPipelineThroughputVsLatency(t *testing.T) {
	n := workload.ResNet18()
	p, err := BuildPipeline(n, DefaultClockHz, func(workload.Layer) (Config, error) {
		return refConfig, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) != len(n.Layers) {
		t.Fatalf("pipeline has %d stages, want %d", len(p.Stages), len(n.Layers))
	}
	thr, err := p.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	lat, err := p.Latency()
	if err != nil {
		t.Fatal(err)
	}
	// Pipelining: sustained rate beats 1/latency (stages overlap).
	if thr <= 1/lat {
		t.Errorf("pipeline throughput %.2f/s must exceed 1/latency %.2f/s", thr, 1/lat)
	}
	bi, err := p.Bottleneck()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Stages[bi].Timing.Seconds(p.ClockHz); !(got > 0) {
		t.Error("bottleneck stage must have positive time")
	}
	if thr != 1/p.Stages[bi].Timing.Seconds(p.ClockHz) {
		t.Error("throughput must be set by the bottleneck stage")
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := BuildPipeline(workload.ResNet18(), 0, nil); err == nil {
		t.Error("nil selector must error")
	}
	empty := Pipeline{}
	if _, err := empty.Throughput(); err == nil {
		t.Error("empty pipeline throughput must error")
	}
	if _, err := empty.Latency(); err == nil {
		t.Error("empty pipeline latency must error")
	}
	if _, err := empty.Bottleneck(); err == nil {
		t.Error("empty pipeline bottleneck must error")
	}
}

func TestPipelinesSustainConstellationWithinPowerBudget(t *testing.T) {
	// Close the Fig. 18 loop: the 64-satellite constellation offers
	// 64 × 0.1 frames/s × (45 Mpix / 256² pix per tile) ≈ 4400 U-Net
	// tiles/s. One pipeline sustains tens of tiles/s, so a SµDC gangs
	// hundreds of pipelines — and the *power* of that gang must fit well
	// inside the 4 kW budget (that is the accelerator TCO story).
	n := workload.UNet()
	cfg := Config{PEX: 64, PEY: 3, IfmapKB: 64, WeightKB: 128, AccumKB: 64}
	p, err := BuildPipeline(n, DefaultClockHz, func(workload.Layer) (Config, error) {
		return cfg, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	thr, err := p.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	if thr < 5 {
		t.Fatalf("one pipeline sustains %.1f tiles/s, want ≥5", thr)
	}
	const demandTilesPerSec = 64 * 0.1 * 45e6 / (256 * 256)
	pipelines := demandTilesPerSec / thr
	energyPerTile, err := networkEnergy(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	watts := demandTilesPerSec * energyPerTile
	t.Logf("%.0f tiles/s over %.0f pipelines → %.0f W", demandTilesPerSec, pipelines, watts)
	if watts > 4000 {
		t.Errorf("accelerator fleet needs %.0f W for the full constellation, want < 4 kW", watts)
	}
}
