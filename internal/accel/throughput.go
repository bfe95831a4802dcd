package accel

import (
	"errors"

	"sudc/internal/workload"
)

// Timing model. The energy model prices *what* is moved; this file prices
// *how long* it takes: cycles are bounded by compute (MACs over mapped
// parallelism) and by DRAM bandwidth, whichever is slower. It turns a DSE
// design point into a sustained inference rate, which is what connects the
// Figure 18 accelerator pipelines back to the constellation sizing
// (Table III) and the discrete-event simulation.
const (
	// DefaultClockHz is the PE-array clock (Eyeriss-class 65 nm silicon
	// runs 200 MHz; modern nodes comfortably 2-4×; we use 500 MHz).
	DefaultClockHz = 500e6
	// dramWordsPerCycle is the off-chip bandwidth in 16-bit words per
	// array cycle (≈ 8 GB/s LPDDR class at the default clock).
	dramWordsPerCycle = 8
)

// LayerTiming is the cycle estimate for one layer on one design.
type LayerTiming struct {
	// ComputeCycles is MACs / mapped spatial parallelism.
	ComputeCycles float64
	// DRAMCycles is DRAM traffic / off-chip bandwidth.
	DRAMCycles float64
	// Utilization mirrors the energy model's spatial utilization.
	Utilization float64
}

// Cycles is the bounding cycle count: max(compute, DRAM).
func (t LayerTiming) Cycles() float64 {
	if t.DRAMCycles > t.ComputeCycles {
		return t.DRAMCycles
	}
	return t.ComputeCycles
}

// Seconds converts the bounding cycle count to wall time at clockHz.
func (t LayerTiming) Seconds(clockHz float64) float64 {
	if clockHz <= 0 {
		clockHz = DefaultClockHz
	}
	return t.Cycles() / clockHz
}

// LayerTiming estimates the cycles for one inference of layer l.
func (c Config) LayerTiming(l workload.Layer) (LayerTiming, error) {
	if err := c.Validate(); err != nil {
		return LayerTiming{}, err
	}
	if err := l.Validate(); err != nil {
		return LayerTiming{}, err
	}
	macs := float64(l.MACs())
	rowsMapped := float64(l.R)
	if pey := float64(c.PEY); rowsMapped > pey {
		rowsMapped = pey
	}
	colsNeeded := float64(l.K)
	if l.Depthwise {
		colsNeeded = float64(l.C)
	}
	colsMapped := colsNeeded
	if pex := float64(c.PEX); colsMapped > pex {
		colsMapped = pex
	}
	e, err := c.LayerEnergy(l)
	if err != nil {
		return LayerTiming{}, err
	}
	dramWords := e.DRAM / eDRAM
	return LayerTiming{
		ComputeCycles: macs / (rowsMapped * colsMapped),
		DRAMCycles:    dramWords / dramWordsPerCycle,
		Utilization:   e.Utilization,
	}, nil
}

// PipelineStage is one accelerator instance in a Figure 18 pipeline.
type PipelineStage struct {
	Layer  workload.Layer
	Config Config
	Timing LayerTiming
}

// Pipeline is an asynchronous, double-buffered accelerator pipeline: one
// stage per layer (Fig. 18c) or one shared design across all stages
// (Figs. 18a/b). Throughput is set by the slowest stage; latency is the
// sum of stages.
type Pipeline struct {
	Stages  []PipelineStage
	ClockHz float64
}

// BuildPipeline assembles a pipeline for the network using configFor to
// pick each stage's design (constant for homogeneous systems, per-layer
// for heterogeneous ones).
func BuildPipeline(n workload.Network, clockHz float64, configFor func(workload.Layer) (Config, error)) (Pipeline, error) {
	if configFor == nil {
		return Pipeline{}, errors.New("accel: nil config selector")
	}
	if clockHz <= 0 {
		clockHz = DefaultClockHz
	}
	p := Pipeline{ClockHz: clockHz, Stages: make([]PipelineStage, 0, len(n.Layers))}
	for _, l := range n.Layers {
		cfg, err := configFor(l)
		if err != nil {
			return Pipeline{}, err
		}
		t, err := cfg.LayerTiming(l)
		if err != nil {
			return Pipeline{}, err
		}
		p.Stages = append(p.Stages, PipelineStage{Layer: l, Config: cfg, Timing: t})
	}
	return p, nil
}

// Throughput returns sustained inferences per second — one over the
// slowest stage's time (double buffering overlaps the rest).
func (p Pipeline) Throughput() (float64, error) {
	if len(p.Stages) == 0 {
		return 0, errors.New("accel: empty pipeline")
	}
	slowest := 0.0
	for _, s := range p.Stages {
		if t := s.Timing.Seconds(p.ClockHz); t > slowest {
			slowest = t
		}
	}
	return 1 / slowest, nil
}

// Latency returns the fill latency of one inference through the pipeline.
func (p Pipeline) Latency() (float64, error) {
	if len(p.Stages) == 0 {
		return 0, errors.New("accel: empty pipeline")
	}
	var sum float64
	for _, s := range p.Stages {
		sum += s.Timing.Seconds(p.ClockHz)
	}
	return sum, nil
}

// Bottleneck returns the index of the slowest stage.
func (p Pipeline) Bottleneck() (int, error) {
	if len(p.Stages) == 0 {
		return 0, errors.New("accel: empty pipeline")
	}
	best, slowest := 0, 0.0
	for i, s := range p.Stages {
		if t := s.Timing.Seconds(p.ClockHz); t > slowest {
			slowest, best = t, i
		}
	}
	return best, nil
}
