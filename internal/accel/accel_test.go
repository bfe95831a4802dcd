package accel

import (
	"strings"
	"testing"
	"testing/quick"

	"sudc/internal/workload"
)

var refConfig = Config{Name: "ref", PEX: 24, PEY: 3, IfmapKB: 64, WeightKB: 128, AccumKB: 32}

func conv(c, k, r, p, stride int) workload.Layer {
	return workload.Layer{Name: "conv", C: c, K: k, R: r, S: r, P: p, Q: p, Stride: stride}
}

func TestConfigValidate(t *testing.T) {
	if err := refConfig.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{PEX: 0, PEY: 3, IfmapKB: 64, WeightKB: 64, AccumKB: 32},
		{PEX: 8, PEY: 0, IfmapKB: 64, WeightKB: 64, AccumKB: 32},
		{PEX: 8, PEY: 3, IfmapKB: 0, WeightKB: 64, AccumKB: 32},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestConfigString(t *testing.T) {
	if got := refConfig.String(); !strings.Contains(got, "24x3") {
		t.Errorf("String() = %q", got)
	}
	if refConfig.PEs() != 72 {
		t.Errorf("PEs = %d, want 72", refConfig.PEs())
	}
}

func TestLayerEnergyErrors(t *testing.T) {
	if _, err := (Config{}).LayerEnergy(conv(64, 64, 3, 56, 1)); err == nil {
		t.Error("invalid config must error")
	}
	if _, err := refConfig.LayerEnergy(workload.Layer{}); err == nil {
		t.Error("invalid layer must error")
	}
}

func TestEnergyComponentsPositive(t *testing.T) {
	e, err := refConfig.LayerEnergy(conv(64, 256, 3, 28, 1))
	if err != nil {
		t.Fatal(err)
	}
	if e.MAC <= 0 || e.RegFile <= 0 || e.NoC <= 0 || e.Buffer <= 0 || e.DRAM <= 0 || e.Idle <= 0 {
		t.Errorf("all components must be positive: %+v", e)
	}
	if e.Total() <= 0 || e.Joules() != e.Total()*1e-12 {
		t.Error("total/joules inconsistent")
	}
	if e.Utilization <= 0 || e.Utilization > 1 {
		t.Errorf("utilization = %v out of (0,1]", e.Utilization)
	}
}

func TestEnergyPerMACInSaneRange(t *testing.T) {
	// A well-matched accelerator runs CNN layers at a few pJ/MAC.
	l := conv(256, 256, 3, 28, 1)
	e, err := refConfig.LayerEnergy(l)
	if err != nil {
		t.Fatal(err)
	}
	perMAC := e.Total() / float64(l.MACs())
	if perMAC < 0.7 || perMAC > 10 {
		t.Errorf("energy = %.2f pJ/MAC, want a few pJ", perMAC)
	}
}

func TestMismatchedPEYCostsStatic(t *testing.T) {
	// A 1×1 layer on a PEY=3 array idles two of three rows; a PEY=1
	// design avoids that.
	l := conv(256, 256, 1, 28, 1)
	tall := Config{PEX: 24, PEY: 3, IfmapKB: 32, WeightKB: 64, AccumKB: 32}
	flat := tall
	flat.PEY = 1
	eTall, _ := tall.LayerEnergy(l)
	eFlat, _ := flat.LayerEnergy(l)
	if eFlat.Idle >= eTall.Idle {
		t.Error("matched PEY must burn less static energy")
	}
	if eFlat.Total() >= eTall.Total() {
		t.Error("matched design must win on a 1×1 layer")
	}
}

func TestFoldPenaltyForShortArrays(t *testing.T) {
	// A 7×7 filter on PEY=1 folds the row-stationary diagonal and pays
	// extra accumulation-buffer traffic versus PEY=7.
	l := conv(64, 64, 7, 112, 2)
	short := Config{PEX: 24, PEY: 1, IfmapKB: 32, WeightKB: 32, AccumKB: 32}
	tall := short
	tall.PEY = 7
	eShort, _ := short.LayerEnergy(l)
	eTall, _ := tall.LayerEnergy(l)
	if eShort.Buffer <= eTall.Buffer {
		t.Error("folding must raise accumulation buffer traffic")
	}
}

func TestOversizedBuffersLeak(t *testing.T) {
	l := conv(64, 64, 3, 56, 1)
	small := Config{PEX: 24, PEY: 3, IfmapKB: 16, WeightKB: 16, AccumKB: 4}
	big := Config{PEX: 24, PEY: 3, IfmapKB: 128, WeightKB: 128, AccumKB: 256}
	eS, _ := small.LayerEnergy(l)
	eB, _ := big.LayerEnergy(l)
	if eB.Idle <= eS.Idle {
		t.Error("bigger SRAM must leak more")
	}
	if eB.Buffer <= eS.Buffer {
		t.Error("bigger SRAM must cost more per access")
	}
}

func TestUndersizedWeightBufferSpillsActivations(t *testing.T) {
	// A layer whose weights dwarf the weight buffer re-streams its ifmap
	// through DRAM (unless the whole ifmap is resident).
	l := conv(512, 512, 3, 28, 1) // 4.7 MB of weights
	small := Config{PEX: 24, PEY: 3, IfmapKB: 16, WeightKB: 16, AccumKB: 64}
	big := Config{PEX: 24, PEY: 3, IfmapKB: 16, WeightKB: 128, AccumKB: 64}
	eS, _ := small.LayerEnergy(l)
	eB, _ := big.LayerEnergy(l)
	if eS.DRAM <= eB.DRAM {
		t.Error("small weight buffer must cost more DRAM traffic")
	}
}

func TestResidentIfmapAvoidsSpills(t *testing.T) {
	// A tiny layer whose whole ifmap fits on chip pays no activation DRAM
	// regardless of weight tiling.
	l := conv(256, 256, 1, 7, 1) // ifmap 256×7×7×2B = 24.5 KB
	cfg := Config{PEX: 24, PEY: 1, IfmapKB: 32, WeightKB: 16, AccumKB: 16}
	e, err := cfg.LayerEnergy(l)
	if err != nil {
		t.Fatal(err)
	}
	// DRAM is then weight streaming only: weights/batch words.
	maxWeightDRAM := float64(l.Weights()) / batchSize * eDRAM * 1.001
	if e.DRAM > maxWeightDRAM {
		t.Errorf("resident ifmap must avoid activation DRAM: %v > %v", e.DRAM, maxWeightDRAM)
	}
}

func TestDepthwiseLayersHandled(t *testing.T) {
	dw := workload.Layer{Name: "dw", C: 96, K: 96, R: 3, S: 3, P: 56, Q: 56, Stride: 1, Depthwise: true}
	e, err := refConfig.LayerEnergy(dw)
	if err != nil {
		t.Fatal(err)
	}
	if e.Total() <= 0 {
		t.Error("depthwise energy must be positive")
	}
}

// networkEnergy returns the energy of one inference of the network on
// c, in joules: the sum of its layer energies.
func networkEnergy(c Config, n workload.Network) (float64, error) {
	var total float64
	for _, l := range n.Layers {
		e, err := c.LayerEnergy(l)
		if err != nil {
			return 0, err
		}
		total += e.Joules()
	}
	return total, nil
}

func TestNetworkEnergy(t *testing.T) {
	j, err := networkEnergy(refConfig, workload.ResNet18())
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: a ~2 GMAC network at a few pJ/MAC is a few mJ.
	if j < 1e-3 || j > 50e-3 {
		t.Errorf("ResNet-18 = %.4g J/inference, want a few mJ", j)
	}
}

func TestGPUBaseline(t *testing.T) {
	n := workload.VGG16()
	full, err := RTX3090Baseline.NetworkEnergy(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	low, _ := RTX3090Baseline.NetworkEnergy(n, 0.1)
	if low <= full {
		t.Error("poorly utilized GPU must burn more energy per inference")
	}
	if _, err := RTX3090Baseline.NetworkEnergy(n, 1.5); err == nil {
		t.Error("utilization > 1 must error")
	}
	if _, err := RTX3090Baseline.NetworkEnergy(n, -0.1); err == nil {
		t.Error("negative utilization must error")
	}
	// Effective full-utilization energy is bounded by ~100× the ALU-only
	// peak even at the utilization floor.
	floorE, _ := RTX3090Baseline.NetworkEnergy(n, 0)
	if floorE/full > 1/RTX3090Baseline.UtilizationFloor*1.01 {
		t.Error("utilization floor must bound the penalty")
	}
}

func TestAcceleratorBeatsGPU(t *testing.T) {
	// The headline effect: a matched accelerator is 1-2 orders of
	// magnitude more energy-efficient than the commodity GPU.
	for _, name := range []string{"resnet-50", "vgg-16", "unet"} {
		n := workload.Networks()[name]
		accelJ, err := networkEnergy(refConfig, n)
		if err != nil {
			t.Fatal(err)
		}
		gpuJ, _ := RTX3090Baseline.NetworkEnergy(n, 0.5)
		gain := gpuJ / accelJ
		if gain < 10 || gain > 500 {
			t.Errorf("%s: gain = %.1f×, want 10-500×", name, gain)
		}
	}
}

func TestEnergyMonotoneInMACs(t *testing.T) {
	f := func(raw uint8) bool {
		p := int(raw)%48 + 8
		e1, err1 := refConfig.LayerEnergy(conv(64, 64, 3, p, 1))
		e2, err2 := refConfig.LayerEnergy(conv(64, 64, 3, p+4, 1))
		if err1 != nil || err2 != nil {
			return false
		}
		return e2.Total() > e1.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
