// Package hardware catalogs the compute devices the paper evaluates
// (Table II): commodity COTS GPUs with strong FLOPs/$ but varying FLOPs/W,
// and radiation-hardened processors with extreme TID tolerance but
// prohibitive cost and poor efficiency. It also models server packaging —
// the paper's observation that "even after packaging, PCB integration,
// adding cooling, etc., an NVIDIA A40 GPU server has specific power of
// >35 W/kg" — which makes compute mass a minor TCO factor.
package hardware

import (
	"fmt"

	"sudc/internal/units"
)

// Class distinguishes commodity from radiation-hardened devices.
type Class int

// Device classes.
const (
	// COTS is commercial-off-the-shelf, non-radiation-hardened hardware.
	COTS Class = iota
	// RadHard is radiation-hardened hardware.
	RadHard
)

func (c Class) String() string {
	if c == RadHard {
		return "rad-hard"
	}
	return "COTS"
}

// Device is one row of the paper's Table II.
type Device struct {
	Name  string
	Class Class
	// TIDToleranceKrad is the total-ionizing-dose tolerance in krad(Si).
	// For COTS parts the paper lists the conservative 2–10 band; we store
	// the low end.
	TIDToleranceKrad units.Dose
	// Price is the unit price; zero means not published (N/A).
	Price units.Dollars
	// TDP is the thermal design power; zero means not published.
	TDP units.Power
	// FP32TFLOPs is peak IEEE FP32 throughput in TFLOP/s.
	FP32TFLOPs float64
	// TF32TFLOPs is peak TF32 tensor-core throughput; zero if absent.
	TF32TFLOPs float64
}

// Table II of the paper.
var (
	RTX3090 = Device{
		Name: "RTX 3090", Class: COTS, TIDToleranceKrad: 2,
		Price: 1690, TDP: 350, FP32TFLOPs: 35.58,
	}
	A100 = Device{
		Name: "A100", Class: COTS, TIDToleranceKrad: 2,
		Price: 17210, TDP: 300, FP32TFLOPs: 19.5, TF32TFLOPs: 156,
	}
	H100 = Device{
		Name: "H100", Class: COTS, TIDToleranceKrad: 2,
		Price: 43989, TDP: 350, FP32TFLOPs: 51, TF32TFLOPs: 756,
	}
	Radeon780M = Device{
		Name: "Radeon 780M", Class: COTS, TIDToleranceKrad: 2,
		TDP: 15, FP32TFLOPs: 8.29,
	}
	RAD750 = Device{
		Name: "BAE RAD750", Class: RadHard, TIDToleranceKrad: 200,
		Price: 200000, TDP: 5, FP32TFLOPs: 0.00027,
	}
	MPC8548E = Device{
		Name: "MPC8548E", Class: RadHard, TIDToleranceKrad: 100,
		Price: 200000, TDP: 5, FP32TFLOPs: 0.008,
	}
	Virtex5QV = Device{
		Name: "Virtex-5QV", Class: RadHard, TIDToleranceKrad: 1000,
		Price: 75000, TDP: 15, FP32TFLOPs: 0.08,
	}
	KintexXQR = Device{
		Name: "Kintex UltraScale XQR", Class: RadHard, TIDToleranceKrad: 100,
		FP32TFLOPs: 0.65, // estimated from DSP count (paper footnote 2)
	}
)

// Catalog returns all Table II devices, COTS first, in the paper's order.
func Catalog() []Device {
	return []Device{RTX3090, A100, H100, Radeon780M, RAD750, MPC8548E, Virtex5QV, KintexXQR}
}

// ByName finds a catalog device by its exact name.
func ByName(name string) (Device, error) {
	for _, d := range Catalog() {
		if d.Name == name {
			return d, nil
		}
	}
	return Device{}, fmt.Errorf("hardware: unknown device %q", name)
}

// FLOPsPerWatt returns peak FP32 throughput per watt (FLOP/s/W, i.e.
// FLOP/J). TensorOps selects TF32 tensor-core throughput where available.
func (d Device) FLOPsPerWatt(tensorOps bool) float64 {
	if d.TDP <= 0 {
		return 0
	}
	return d.peak(tensorOps) / float64(d.TDP)
}

// FLOPsPerDollar returns peak throughput per unit price (FLOP/s/$).
func (d Device) FLOPsPerDollar(tensorOps bool) float64 {
	if d.Price <= 0 {
		return 0
	}
	return d.peak(tensorOps) / float64(d.Price)
}

func (d Device) peak(tensorOps bool) float64 {
	t := d.FP32TFLOPs
	if tensorOps && d.TF32TFLOPs > 0 {
		t = d.TF32TFLOPs
	}
	return t * 1e12
}

// Server models a packaged, integrated compute server built from devices.
type Server struct {
	Device Device
	// SpecificPower is the packaged W/kg (≥35 for GPU servers, paper §III).
	SpecificPower units.SpecificPower
	// IntegrationCostFactor multiplies device cost for PCB, chassis, NICs,
	// host CPU and integration.
	IntegrationCostFactor float64
}

// DefaultServer packages the device as the paper assumes: 35 W/kg and a
// 1.6× integration markup over bare device price.
func DefaultServer(d Device) Server {
	return Server{Device: d, SpecificPower: 35, IntegrationCostFactor: 1.6}
}
