// Package accel is an analytical energy model for Eyeriss-like [13]
// row-stationary CNN accelerators — the stand-in for the paper's
// Timeloop/Accelergy [95] evaluation flow (§IV-B). Given an accelerator
// configuration (PE-array geometry and buffer sizes) and a convolution
// layer in the 7-loop notation, it estimates the energy of one inference
// pass by counting accesses at each level of the storage hierarchy
// (register file → NoC → on-chip buffers → DRAM) and pricing each access
// with Accelergy-style per-component energies (CACTI-like √capacity
// scaling for SRAM buffers).
//
// The row-stationary dataflow's reuse structure drives the counts:
// weights stay in PE register files for a full output row, ifmap rows are
// reused diagonally across up to R PEs, and partial sums accumulate
// spatially along PE columns. Undersized weight buffers force ifmap
// re-streaming from DRAM; undersized accumulation buffers force partial
// sum spills; oversized PE arrays waste energy on idle PEs and longer NoC
// hops. These tensions give every layer shape a different optimal design —
// the effect the paper's per-layer heterogeneity exploits.
package accel

import (
	"errors"
	"fmt"
	"math"

	"sudc/internal/workload"
)

// Config is one accelerator design point.
type Config struct {
	Name string
	// PEX and PEY are the PE-array dimensions (paper DSE dimensions 1–2).
	PEX, PEY int
	// IfmapKB, WeightKB, AccumKB are the on-chip buffer capacities in KiB
	// (paper DSE dimensions 3–5).
	IfmapKB, WeightKB, AccumKB int
}

// Validate reports geometry errors.
func (c Config) Validate() error {
	if c.PEX < 1 || c.PEY < 1 {
		return fmt.Errorf("accel: PE array %dx%d invalid", c.PEX, c.PEY)
	}
	if c.IfmapKB < 1 || c.WeightKB < 1 || c.AccumKB < 1 {
		return errors.New("accel: buffers must be at least 1 KiB")
	}
	return nil
}

// PEs returns the PE count.
func (c Config) PEs() int { return c.PEX * c.PEY }

func (c Config) String() string {
	return fmt.Sprintf("%dx%d/if%d/w%d/acc%d", c.PEX, c.PEY, c.IfmapKB, c.WeightKB, c.AccumKB)
}

// Energy component unit costs in picojoules (16-bit datapath, Accelergy/
// Eyeriss-era 45-65 nm class numbers).
const (
	// eMAC is one 16-bit multiply-accumulate.
	eMAC = 0.5
	// eRF is one PE register-file access.
	eRF = 0.08
	// eNoCBase is one word over the array NoC at a 256-PE reference size;
	// actual cost scales with √PEs (average Manhattan distance).
	eNoCBase = 0.15
	// eBufBase is one access to a 64 KiB SRAM buffer; actual cost scales
	// with capacity^0.7 (CACTI-like, periphery-heavy at small sizes).
	eBufBase = 2.0
	// eDRAM is one word from DRAM.
	eDRAM = 220.0
	// eStaticPE is static power (clock tree, pipeline registers, leakage)
	// charged per PE per array cycle — PE rows idled by a filter smaller
	// than the array burn it for nothing.
	eStaticPE = 0.9
	// eLeakPerKB is SRAM retention energy charged per MAC per KiB of
	// on-chip buffer at the design throughput — the term that punishes
	// oversized buffers.
	eLeakPerKB = 0.016
	// rfChannelDepth is how many input channels' filter taps a PE register
	// file holds, bounding temporal partial-sum accumulation in the RF.
	rfChannelDepth = 16
	// batchSize is the energy-minimizing batch the paper's offline
	// processing uses; weight streaming from DRAM amortizes across it.
	batchSize = 16
	// bytesPerWord of the 16-bit datapath.
	bytesPerWord = 2
	// accumBytesPerWord: partial sums are kept at 32 bits.
	accumBytesPerWord = 4
)

// bufAccess returns the per-access energy of a buffer of the given KiB.
func bufAccess(kb int) float64 {
	return eBufBase * math.Pow(float64(kb)/64, 0.7)
}

// nocAccess returns the per-word NoC energy for the array size.
func nocAccess(pes int) float64 {
	return eNoCBase * math.Sqrt(float64(pes)/256)
}

// LayerEnergy is the per-inference energy breakdown for one layer, in pJ.
type LayerEnergy struct {
	MAC, RegFile, NoC, Buffer, DRAM, Idle float64
	// Utilization is the spatial PE utilization achieved on this layer.
	Utilization float64
}

// Total returns total energy in pJ.
func (e LayerEnergy) Total() float64 {
	return e.MAC + e.RegFile + e.NoC + e.Buffer + e.DRAM + e.Idle
}

// Joules returns the total in joules.
func (e LayerEnergy) Joules() float64 { return e.Total() * 1e-12 }

// LayerEnergy estimates the energy of one inference of layer l.
func (c Config) LayerEnergy(l workload.Layer) (LayerEnergy, error) {
	if err := c.Validate(); err != nil {
		return LayerEnergy{}, err
	}
	if err := l.Validate(); err != nil {
		return LayerEnergy{}, err
	}

	macs := float64(l.MACs())
	weights := float64(l.Weights())
	inputs := float64(l.Inputs())
	outputs := float64(l.Outputs())

	// Spatial mapping: filter rows map across PE columns (Y), output rows
	// and channels tile across X. Utilization suffers when R < PEY or the
	// layer is too small to fill X.
	rowsMapped := math.Min(float64(l.R), float64(c.PEY))
	colsNeeded := float64(l.K) // output channels tile across X
	if l.Depthwise {
		colsNeeded = float64(l.C)
	}
	colsMapped := math.Min(colsNeeded, float64(c.PEX))
	util := (rowsMapped * colsMapped) / float64(c.PEs())
	if util > 1 {
		util = 1
	}

	// Register file: weight, ifmap, and psum touched per MAC.
	rf := 3 * macs * eRF

	// Buffer traffic after register-file and spatial reuse:
	//   weights leave the buffer once per output row they serve (reuse Q),
	//   ifmap rows are reused diagonally across the rowsMapped PEs AND
	//   broadcast across PE columns computing different output channels,
	//   psums write back after spatial accumulation over mapped filter
	//   rows and the filter width held in the PE.
	kMapped := math.Min(float64(l.K), float64(c.PEX))
	if l.Depthwise {
		kMapped = 1 // no cross-channel ifmap sharing in depthwise layers
	}
	// A PE array shorter than the filter (PEY < R) cannot hold the full
	// row-stationary diagonal: each fold's partial sums round-trip the
	// accumulation buffer and channel-temporal accumulation in the RF is
	// lost.
	foldsY := math.Ceil(float64(l.R) / float64(c.PEY))
	cTemporal := math.Min(float64(l.C), rfChannelDepth)
	if foldsY > 1 {
		cTemporal = 1
	}
	wBufReads := macs / float64(l.Q)
	iBufReads := macs / (rowsMapped * kMapped)
	pBufAccesses := 2 * macs * foldsY / (rowsMapped * float64(l.S) * cTemporal)
	bufWords := wBufReads + iBufReads + pBufAccesses
	buffer := wBufReads*bufAccess(c.WeightKB) +
		iBufReads*bufAccess(c.IfmapKB) +
		pBufAccesses*bufAccess(c.AccumKB)

	// NoC: every buffer word crosses the array network.
	noc := bufWords * nocAccess(c.PEs())

	// DRAM traffic. Weights always live in DRAM; their streaming
	// amortizes over the processing batch (offline batch processing,
	// paper §IV-A). Activations ride the double-buffered inter-stage
	// feature buffers (Fig. 18) and only touch DRAM when the on-chip
	// capacity cannot hold the pass:
	//   - a weight buffer smaller than the layer forces multiple weight
	//     tiles; unless the whole ifmap is SRAM-resident, every extra
	//     tile re-streams the ifmap through DRAM;
	//   - an ifmap working set (C × one filter-height of rows) that
	//     overflows its buffer cannot be row-streamed and must be staged
	//     in DRAM.
	weightTiles := math.Ceil(weights * bytesPerWord / float64(c.WeightKB*1024))
	ifmapWorking := float64(l.C) * float64(l.InputW()) * float64(l.R) * bytesPerWord
	ifmapResident := inputs*bytesPerWord <= float64(c.IfmapKB*1024)
	wStream := weights / batchSize

	actDram := 0.0
	switch {
	case ifmapResident:
		// Whole ifmap fits on chip: weight tiles replay it from SRAM.
	case weightTiles > 1:
		// Staged in DRAM once, then read back per weight tile.
		actDram = inputs * (weightTiles + 1)
	case ifmapWorking > float64(c.IfmapKB*1024):
		// Working set overflow: stage and re-read once.
		actDram = inputs * 2
	}

	// Partial-sum spills: one output row across all K channels must fit
	// in the accumulation buffer or extra DRAM round trips occur.
	accumNeeded := float64(l.K) * float64(l.Q) * accumBytesPerWord
	spills := math.Ceil(accumNeeded / float64(c.AccumKB*1024))
	dramWords := wStream + actDram + outputs*2*(spills-1)
	dram := dramWords * eDRAM

	// Static energy: the whole array burns static power for every array
	// cycle (cycles = MACs / mapped parallelism), and the SRAM complement
	// pays retention energy per operation at the design throughput.
	cycles := macs / (rowsMapped * colsMapped)
	idle := cycles*eStaticPE*float64(c.PEs()) +
		macs*eLeakPerKB*float64(c.IfmapKB+c.WeightKB+c.AccumKB)

	return LayerEnergy{
		MAC:         macs * eMAC,
		RegFile:     rf,
		NoC:         noc,
		Buffer:      buffer,
		DRAM:        dram,
		Idle:        idle,
		Utilization: util,
	}, nil
}

// GPUModel is the commodity-GPU energy baseline for Fig. 17, anchored on
// the paper's RTX 3090 measurements: effective energy per MAC is the
// peak-rate energy inflated by the measured utilization (Table III) —
// poorly-utilized launches burn nearly full board power for little work.
type GPUModel struct {
	// PeakPJPerMAC is the energy per MAC at full utilization (2×TDP/peak
	// FLOP rate for MAC=2 FLOPs).
	PeakPJPerMAC float64
	// UtilizationFloor regularizes the utilization divisor: effective
	// energy = peak / (floor + (1-floor)·util).
	UtilizationFloor float64
}

// RTX3090Baseline is the Fig. 17 baseline: 350 W at 35.58 TFLOP/s peak
// gives ~19.7 pJ/MAC at full utilization.
// The ALU-only peak is 2×350 W / 35.58 TFLOP/s ≈ 19.7 pJ/MAC; ALUs are
// only ~27 % of board energy on CNN inference (the rest is DRAM, caches,
// instruction issue), giving ≈ 73 pJ/MAC effective at full utilization.
var RTX3090Baseline = GPUModel{
	PeakPJPerMAC:     2 * 350 / 35.58 / 0.14,
	UtilizationFloor: 0.05,
}

// NetworkEnergy returns the GPU energy for one inference in joules, given
// the measured utilization of the app driving this network.
func (g GPUModel) NetworkEnergy(n workload.Network, utilization float64) (float64, error) {
	if utilization < 0 || utilization > 1 {
		return 0, fmt.Errorf("accel: utilization %v out of [0,1]", utilization)
	}
	eff := g.PeakPJPerMAC / (g.UtilizationFloor + (1-g.UtilizationFloor)*utilization)
	return float64(n.TotalMACs()) * eff * 1e-12, nil
}
