// Package thermal models a SµDC's thermal management: radiative heat
// rejection (the only way heat leaves a satellite — paper §III-B), radiator
// sizing via the Stefan–Boltzmann law, and an active heat pump that lifts
// heat from the electronics cold plate to a hotter radiator to shrink the
// required panel area at the price of pump power.
package thermal

import (
	"errors"
	"fmt"
	"math"

	"sudc/internal/units"
)

// Radiator describes a deployable radiator panel.
type Radiator struct {
	// Emissivity ε of the panel coating (paper uses 0.86 [92]).
	Emissivity float64
	// Temperature is the panel operating temperature.
	Temperature units.Temperature
	// SinkTemperature is the effective radiative background. Deep space is
	// 2.7 K; panels that view some Earth IR/albedo see a hotter sink.
	SinkTemperature units.Temperature
	// TwoSided reports whether both faces view space (paper's assumption).
	TwoSided bool
	// ArealDensity is panel mass per unit area (deployable radiators with
	// embedded heat pipes run ~3.5–8 kg/m²).
	ArealDensity units.ArealDensity
}

// DefaultRadiator is the paper's radiator: ε = 0.86, both faces toward
// deep space, 45 °C panels.
var DefaultRadiator = Radiator{
	Emissivity:      0.86,
	Temperature:     units.Celsius(45),
	SinkTemperature: units.SpaceBackgroundTemp,
	TwoSided:        true,
	ArealDensity:    5.5,
}

// Validate reports an error for unphysical radiators.
func (r Radiator) Validate() error {
	if r.Emissivity <= 0 || r.Emissivity > 1 {
		return fmt.Errorf("thermal: emissivity %v out of (0,1]", r.Emissivity)
	}
	if r.Temperature <= r.SinkTemperature {
		return errors.New("thermal: radiator must be hotter than its sink")
	}
	return nil
}

// FluxPerArea returns the net radiated power per unit panel area in W/m²
// (counting both faces when TwoSided): εσ(T⁴ − T_sink⁴) × faces.
func (r Radiator) FluxPerArea() float64 {
	faces := 1.0
	if r.TwoSided {
		faces = 2
	}
	t4 := math.Pow(float64(r.Temperature), 4)
	s4 := math.Pow(float64(r.SinkTemperature), 4)
	return r.Emissivity * units.StefanBoltzmann * (t4 - s4) * faces
}

// AreaFor returns the panel area required to reject heat q.
func (r Radiator) AreaFor(q units.Power) (units.Area, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	if q < 0 {
		return 0, errors.New("thermal: negative heat load")
	}
	return units.Area(float64(q) / r.FluxPerArea()), nil
}

// HeatPump is the active thermal control element. It moves heat from the
// electronics loop at Cold to the radiator at Hot; its electrical draw is
// heat/CoP with CoP a fraction of the Carnot limit.
type HeatPump struct {
	// Cold is the electronics cold-plate temperature.
	Cold units.Temperature
	// Hot is the radiator loop temperature.
	Hot units.Temperature
	// CarnotFraction is achieved CoP over Carnot CoP (vapor-compression
	// systems reach 0.3–0.5).
	CarnotFraction float64
	// SpecificMass is pump+loop mass per kW of heat lifted, kg/kW.
	SpecificMass float64
}

// DefaultHeatPump matches the paper's 4 kW design: lift from a 20 °C cold
// plate to the 45 °C radiator loop.
var DefaultHeatPump = HeatPump{
	Cold:           units.Celsius(20),
	Hot:            units.Celsius(45),
	CarnotFraction: 0.40,
	SpecificMass:   8,
}

// CoP returns the heat pump's coefficient of performance:
// CarnotFraction × T_cold/(T_hot − T_cold).
func (h HeatPump) CoP() (float64, error) {
	if h.Hot <= h.Cold {
		return 0, errors.New("thermal: heat pump requires Hot > Cold")
	}
	carnot := float64(h.Cold) / float64(h.Hot-h.Cold)
	return h.CarnotFraction * carnot, nil
}

// PumpPower returns the electrical power to lift heat q.
func (h HeatPump) PumpPower(q units.Power) (units.Power, error) {
	cop, err := h.CoP()
	if err != nil {
		return 0, err
	}
	return units.Power(float64(q) / cop), nil
}

// Design is a sized thermal subsystem.
type Design struct {
	// HeatLoad is the waste heat removed from the payload and bus.
	HeatLoad units.Power
	// PumpPower is the electrical draw of the active loop (itself also
	// rejected as heat by the radiator).
	PumpPower units.Power
	// RadiatedPower = HeatLoad + PumpPower.
	RadiatedPower units.Power
	// Area is the radiator panel area.
	Area units.Area
	// PanelMass and PumpMass are the component masses.
	PanelMass units.Mass
	PumpMass  units.Mass
}

// TotalMass returns the thermal subsystem mass.
func (d Design) TotalMass() units.Mass { return d.PanelMass + d.PumpMass }

// Size designs the thermal subsystem for a given waste-heat load using the
// radiator and pump. The pump's own dissipation is added to the radiated
// load (the pump does work on the fluid, and that work leaves as heat too).
func Size(q units.Power, r Radiator, h HeatPump) (Design, error) {
	if q < 0 {
		return Design{}, errors.New("thermal: negative heat load")
	}
	pump, err := h.PumpPower(q)
	if err != nil {
		return Design{}, err
	}
	total := q + pump
	area, err := r.AreaFor(total)
	if err != nil {
		return Design{}, err
	}
	return Design{
		HeatLoad:      q,
		PumpPower:     pump,
		RadiatedPower: total,
		Area:          area,
		PanelMass:     r.ArealDensity.MassFor(area),
		PumpMass:      units.Mass(h.SpecificMass * q.Kilowatts()),
	}, nil
}

// SizePassive designs a passive thermal subsystem: no heat pump, so the
// radiator runs at the electronics cold-plate temperature and must be
// correspondingly larger (the T⁴ law). This is the configuration SSCM's
// regression data is dominated by, and the baseline the paper's active
// design trades against.
func SizePassive(q units.Power, r Radiator, plateTemp units.Temperature) (Design, error) {
	if q < 0 {
		return Design{}, errors.New("thermal: negative heat load")
	}
	passive := r
	passive.Temperature = plateTemp
	area, err := passive.AreaFor(q)
	if err != nil {
		return Design{}, err
	}
	return Design{
		HeatLoad:      q,
		RadiatedPower: q,
		Area:          area,
		PanelMass:     passive.ArealDensity.MassFor(area),
	}, nil
}
