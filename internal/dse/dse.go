// Package dse performs the paper's accelerator design-space exploration
// (§IV-B): it sweeps 7168 Eyeriss-like row-stationary designs — the PE
// grid's x and y lengths and the input-feature, weight, and accumulation
// buffer sizes — over the Figure 13 CNN suite, and derives the three
// system architectures of Figure 18:
//
//   - Global Accelerator: the single design with the best geometric-mean
//     energy efficiency across all network layers;
//   - Per-Network Accelerator: the best design for each network;
//   - Per-Layer Accelerator: the best design for each individual layer.
//
// Energy-efficiency gains are reported against the commodity RTX 3090
// baseline (Figure 17).
package dse

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"sudc/internal/accel"
	"sudc/internal/obs"
	"sudc/internal/par"
	"sudc/internal/workload"
)

// Design-space axes: 7 × 8 × 4 × 4 × 8 = 7168 design points, matching the
// paper's "total of 7168 designs were evaluated".
var (
	peXOptions    = []int{8, 12, 16, 24, 32, 48, 64}
	peYOptions    = []int{1, 2, 3, 4, 5, 7, 12, 16}
	ifmapOptions  = []int{16, 32, 64, 128}
	weightOptions = []int{16, 32, 64, 128}
	accumOptions  = []int{2, 4, 8, 16, 32, 64, 128, 256}
)

// SpaceSize is the number of designs in the exploration.
const SpaceSize = 7 * 8 * 4 * 4 * 8

// space materializes the full design space once, in deterministic order;
// callers share the cached slice, which must never be mutated.
var space = sync.OnceValue(func() []accel.Config {
	out := make([]accel.Config, 0, SpaceSize)
	for _, px := range peXOptions {
		for _, py := range peYOptions {
			for _, ifk := range ifmapOptions {
				for _, wk := range weightOptions {
					for _, ak := range accumOptions {
						out = append(out, accel.Config{
							Name: fmt.Sprintf("rs-%dx%d-i%d-w%d-a%d", px, py, ifk, wk, ak),
							PEX:  px, PEY: py,
							IfmapKB: ifk, WeightKB: wk, AccumKB: ak,
						})
					}
				}
			}
		}
	}
	return out
})

// NetworkResult is one network's row in Figure 17.
type NetworkResult struct {
	Network string
	// App is the Table III application driving the network (its measured
	// GPU utilization anchors the baseline energy).
	App string
	// GPUJoules is the commodity-GPU energy per inference.
	GPUJoules float64
	// GlobalJoules, PerNetworkJoules, PerLayerJoules are per-inference
	// energies under the three accelerator system architectures.
	GlobalJoules     float64
	PerNetworkJoules float64
	PerLayerJoules   float64
	// BestConfig is the per-network optimal design.
	BestConfig accel.Config
}

// GlobalGain is the energy-efficiency improvement of the global
// accelerator over the GPU for this network.
func (r NetworkResult) GlobalGain() float64 { return r.GPUJoules / r.GlobalJoules }

// PerNetworkGain mirrors GlobalGain for the per-network architecture.
func (r NetworkResult) PerNetworkGain() float64 { return r.GPUJoules / r.PerNetworkJoules }

// PerLayerGain mirrors GlobalGain for the per-layer architecture.
func (r NetworkResult) PerLayerGain() float64 { return r.GPUJoules / r.PerLayerJoules }

// Result is the full exploration outcome.
type Result struct {
	// DesignsEvaluated is the swept design count (7168).
	DesignsEvaluated int
	// Global is the globally optimal design (geomean over all layers).
	Global accel.Config
	// Networks holds one row per network, in suite order.
	Networks []NetworkResult
}

// geomean over a slice of positive values.
func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// MeanGlobalGain returns the average (geometric mean) energy-efficiency
// gain of the Global Accelerator architecture — the paper's 57.8×.
func (r Result) MeanGlobalGain() float64 {
	gains := make([]float64, len(r.Networks))
	for i, n := range r.Networks {
		gains[i] = n.GlobalGain()
	}
	return geomean(gains)
}

// MeanPerNetworkGain returns the average gain of the Per-Network
// architecture.
func (r Result) MeanPerNetworkGain() float64 {
	gains := make([]float64, len(r.Networks))
	for i, n := range r.Networks {
		gains[i] = n.PerNetworkGain()
	}
	return geomean(gains)
}

// MeanPerLayerGain returns the average gain of the Per-Layer architecture
// — the paper's "up to 116× on average".
func (r Result) MeanPerLayerGain() float64 {
	gains := make([]float64, len(r.Networks))
	for i, n := range r.Networks {
		gains[i] = n.PerLayerGain()
	}
	return geomean(gains)
}

// netWork binds a network to the Table III app whose measured utilization
// anchors its GPU baseline.
type netWork struct {
	net  workload.Network
	app  workload.App
	macs float64
}

// Explore runs the full design-space exploration for the networks behind
// the given apps (deduplicated), against the GPU baseline.
func Explore(apps []workload.App, gpu accel.GPUModel) (Result, error) {
	if len(apps) == 0 {
		return Result{}, errors.New("dse: no applications")
	}
	// The DSE has no natural injection point for a registry, so it
	// records into the process-wide one (nil when observability is off;
	// all calls below are then no-ops). Everything recorded here sits
	// outside the energy-sweep hot loop.
	sp := obs.Global().StartSpan("dse/explore")
	defer sp.End()

	// Deduplicate networks, remembering the highest-utilization app per
	// network (conservative baseline).
	nets := make([]netWork, 0, len(apps))
	seen := map[string]int{}
	for _, a := range apps {
		n, err := workload.NetworkFor(a)
		if err != nil {
			return Result{}, err
		}
		if i, ok := seen[n.Name]; ok {
			if a.GPUUtilization > nets[i].app.GPUUtilization {
				nets[i].app = a
			}
			continue
		}
		seen[n.Name] = len(nets)
		nets = append(nets, netWork{net: n, app: a, macs: float64(n.TotalMACs())})
	}
	sort.Slice(nets, func(i, j int) bool { return nets[i].net.Name < nets[j].net.Name })

	space := space()

	// layers is the concatenation of all networks' layers; refs maps each
	// global layer back to its network.
	type layerRef struct {
		netIdx int
	}
	var layers []workload.Layer
	var refs []layerRef
	for ni, nw := range nets {
		for _, l := range nw.net.Layers {
			layers = append(layers, l)
			refs = append(refs, layerRef{netIdx: ni})
		}
	}
	nLayers := len(layers)

	// Layer energy depends only on the layer's shape, and roughly half the
	// suite's layers share a shape with another layer; memoize per unique
	// shape so each (design, shape) pair is evaluated exactly once and the
	// Global/Per-Network/Per-Layer selections below all read the same
	// matrix instead of re-sweeping the space.
	shapes := make([]workload.Layer, 0, nLayers)
	shapeIdx := make([]int, nLayers)
	seenShapes := map[workload.Layer]int{}
	for li, l := range layers {
		key := l
		key.Name = ""
		si, ok := seenShapes[key]
		if !ok {
			si = len(shapes)
			seenShapes[key] = si
			shapes = append(shapes, l)
		}
		shapeIdx[li] = si
	}

	// energies[c][s] = energy (J) of design c on unique shape s. Each
	// design's row is independent, so the sweep parallelizes over designs.
	energies := make([][]float64, len(space))
	err := par.ForNErr(len(space), func(ci int) error {
		cfg := space[ci]
		row := make([]float64, len(shapes))
		for si, l := range shapes {
			e, err := cfg.LayerEnergy(l)
			if err != nil {
				return fmt.Errorf("dse: %s on %s: %w", cfg.Name, l.Name, err)
			}
			row[si] = e.Joules()
		}
		energies[ci] = row
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	obs.Global().Counter("dse/designs_evaluated").Add(int64(len(space)))
	obs.Global().Counter("dse/layer_energies").Add(int64(len(space) * len(shapes)))
	obs.Global().Gauge("dse/networks").Set(float64(len(nets)))

	// Global optimum: minimize geomean energy across all layers (the
	// paper: "geometric mean of each design's energy efficiency on all
	// neural network layers").
	bestGlobal, bestGlobalScore := 0, math.Inf(1)
	for ci := range space {
		var logSum float64
		for li := 0; li < nLayers; li++ {
			logSum += math.Log(energies[ci][shapeIdx[li]])
		}
		if logSum < bestGlobalScore {
			bestGlobalScore = logSum
			bestGlobal = ci
		}
	}

	// Per-network optima: minimize the network's total inference energy
	// (the metric the per-network system actually pays). Per-layer: sum
	// of per-layer minima.
	perNetBest := make([]int, len(nets))
	perNetScore := make([]float64, len(nets))
	for i := range perNetScore {
		perNetScore[i] = math.Inf(1)
	}
	for ci := range space {
		sums := make([]float64, len(nets))
		for li := 0; li < nLayers; li++ {
			sums[refs[li].netIdx] += energies[ci][shapeIdx[li]]
		}
		for ni := range nets {
			if sums[ni] < perNetScore[ni] {
				perNetScore[ni] = sums[ni]
				perNetBest[ni] = ci
			}
		}
	}
	perLayerMin := make([]float64, nLayers)
	for li := 0; li < nLayers; li++ {
		min := math.Inf(1)
		for ci := range space {
			if e := energies[ci][shapeIdx[li]]; e < min {
				min = e
			}
		}
		perLayerMin[li] = min
	}

	// Assemble per-network results.
	results := make([]NetworkResult, len(nets))
	globalJ := make([]float64, len(nets))
	perNetJ := make([]float64, len(nets))
	perLayerJ := make([]float64, len(nets))
	for li := 0; li < nLayers; li++ {
		ni := refs[li].netIdx
		globalJ[ni] += energies[bestGlobal][shapeIdx[li]]
		perNetJ[ni] += energies[perNetBest[ni]][shapeIdx[li]]
		perLayerJ[ni] += perLayerMin[li]
	}
	for ni, nw := range nets {
		gpuJ, err := gpu.NetworkEnergy(nw.net, nw.app.GPUUtilization)
		if err != nil {
			return Result{}, err
		}
		results[ni] = NetworkResult{
			Network:          nw.net.Name,
			App:              nw.app.Name,
			GPUJoules:        gpuJ,
			GlobalJoules:     globalJ[ni],
			PerNetworkJoules: perNetJ[ni],
			PerLayerJoules:   perLayerJ[ni],
			BestConfig:       space[perNetBest[ni]],
		}
	}

	return Result{
		DesignsEvaluated: len(space),
		Global:           space[bestGlobal],
		Networks:         results,
	}, nil
}
