package experiments

import (
	"fmt"
	"time"

	"sudc/internal/compress"
	"sudc/internal/core"
	"sudc/internal/netsim"
	"sudc/internal/propulsion"
	"sudc/internal/solar"
	"sudc/internal/units"
	"sudc/internal/workload"
)

// Ablations returns the design-choice studies that back DESIGN.md's
// modeling decisions. They are not paper exhibits; they quantify what
// changes if a modeling choice is made differently.
func Ablations() []Experiment {
	return []Experiment{
		{"Ablation A1", "active heat pump vs passive radiator", AblationThermal},
		{"Ablation A2", "solar EPS vs RTG power source", AblationPowerSource},
		{"Ablation A3", "thruster technology", AblationThruster},
		{"Ablation A4", "solar cell technology", AblationSolarCell},
		{"Ablation A5", "saturating vs linear ISL cost law", AblationISLLaw},
		{"Ablation A6", "compression savings with decode power charged", AblationCompressionDecode},
		{"Ablation A7", "batch size vs latency and utilization", AblationBatchSize},
	}
}

// AblationThermal compares the paper's active heat-pump thermal design
// against an all-passive radiator at the cold-plate temperature.
func AblationThermal() (Table, error) {
	t := Table{
		ID:     "Ablation A1",
		Title:  "active (heat pump, 45 °C radiator) vs passive (20 °C radiator)",
		Header: []string{"compute power", "variant", "radiator m²", "pump W", "EOL kW", "wet kg", "TCO $M"},
	}
	for _, kw := range []float64{0.5, 4, 10} {
		for _, passive := range []bool{false, true} {
			c := core.DefaultConfig(units.KW(kw))
			c.PassiveThermal = passive
			d, err := c.Build()
			if err != nil {
				return Table{}, err
			}
			b, err := d.Cost()
			if err != nil {
				return Table{}, err
			}
			name := "active"
			if passive {
				name = "passive"
			}
			t.AddRow(fmt.Sprintf("%.1f kW", kw), name,
				f2(d.Thermal.Area.SquareMeters()),
				f0(float64(d.Thermal.PumpPower)),
				f2(d.EOLPower.Kilowatts()),
				f0(d.WetMass.Kilograms()),
				f1(b.TCO().Millions()))
		}
	}
	return t, nil
}

// AblationPowerSource compares the solar EPS against a radioisotope
// generator — quantifying why LEO SµDCs are solar.
func AblationPowerSource() (Table, error) {
	t := Table{
		ID:     "Ablation A2",
		Title:  "solar arrays vs GPHS-class RTG",
		Header: []string{"compute power", "source", "EPS kg", "battery kg", "TCO $M"},
	}
	rtg := solar.GPHSClass
	for _, kw := range []float64{0.1, 0.3, 0.5} {
		for _, useRTG := range []bool{false, true} {
			c := core.DefaultConfig(units.KW(kw))
			name := "solar"
			if useRTG {
				c.RTG = &rtg
				name = "RTG"
			}
			d, err := c.Build()
			if err != nil {
				return Table{}, err
			}
			b, err := d.Cost()
			if err != nil {
				return Table{}, err
			}
			t.AddRow(fmt.Sprintf("%.1f kW", kw), name,
				f0(d.EPS.TotalMass().Kilograms()),
				f0(d.EPS.BatteryMass.Kilograms()),
				f1(b.TCO().Millions()))
		}
	}
	return t, nil
}

// AblationThruster compares propulsion technologies for the 4 kW design.
func AblationThruster() (Table, error) {
	t := Table{
		ID:     "Ablation A3",
		Title:  "thruster technology on the 4 kW design",
		Header: []string{"thruster", "Isp s", "propellant kg", "wet kg", "TCO $M"},
	}
	for _, th := range []propulsion.Thruster{
		propulsion.Monopropellant, propulsion.Bipropellant, propulsion.IonThruster,
	} {
		c := core.DefaultConfig(units.KW(4))
		c.Thruster = th
		d, err := c.Build()
		if err != nil {
			return Table{}, err
		}
		b, err := d.Cost()
		if err != nil {
			return Table{}, err
		}
		t.AddRow(th.Name, f0(th.SpecificImpulse),
			f1(d.Propulsion.Propellant.Kilograms()),
			f0(d.WetMass.Kilograms()),
			f1(b.TCO().Millions()))
	}
	return t, nil
}

// AblationSolarCell compares GaAs against legacy silicon arrays.
func AblationSolarCell() (Table, error) {
	t := Table{
		ID:     "Ablation A4",
		Title:  "solar cell technology on the 4 kW design",
		Header: []string{"cell", "array m²", "array kg", "wet kg", "TCO $M"},
	}
	for _, cell := range []solar.CellTechnology{solar.TripleJunctionGaAs, solar.Silicon} {
		c := core.DefaultConfig(units.KW(4))
		c.Solar.Cell = cell
		d, err := c.Build()
		if err != nil {
			return Table{}, err
		}
		b, err := d.Cost()
		if err != nil {
			return Table{}, err
		}
		t.AddRow(cell.Name, f1(d.EPS.ArrayArea.SquareMeters()),
			f0(d.EPS.ArrayMass.Kilograms()),
			f0(d.WetMass.Kilograms()),
			f1(b.TCO().Millions()))
	}
	return t, nil
}

// AblationISLLaw compares the saturating ISL cost law against a
// linearized one (no economies of scale): the linear law reproduces
// Fig. 10's compression savings better but violates Fig. 7's cheap
// large-capacity anchor — the trade DESIGN.md documents.
func AblationISLLaw() (Table, error) {
	t := Table{
		ID:     "Ablation A5",
		Title:  "saturating vs linearized ISL cost law (TCO increase over no-ISL)",
		Header: []string{"ISL rate", "saturating 500 W", "linear 500 W", "saturating 4 kW", "linear 4 kW"},
	}
	// Linearize: push the knee far out and scale peaks to keep the
	// marginal cost at low rates identical (peak/R₀ constant).
	linear := core.DefaultConfig(units.KW(4)).ISLLink
	linear.SaturationRate *= 20
	linear.PeakPower *= 20
	linear.PeakMass *= 20
	linear.PeakCost *= 20

	tcoNoISL := map[float64]float64{}
	for _, kw := range []float64{0.5, 4} {
		c := core.DefaultConfig(units.KW(kw))
		c.OmitISL = true
		v, err := c.TCO()
		if err != nil {
			return Table{}, err
		}
		tcoNoISL[kw] = float64(v)
	}
	for _, g := range []float64{10, 25, 100, 200} {
		row := []string{fmt.Sprintf("%.0f Gbit/s", g)}
		for _, kw := range []float64{0.5, 4} {
			for _, lin := range []bool{false, true} {
				c := core.DefaultConfig(units.KW(kw))
				c.ISLRate = units.GbpsOf(g)
				if lin {
					c.ISLLink = linear
				}
				v, err := c.TCO()
				if err != nil {
					return Table{}, err
				}
				row = append(row, pct(float64(v)/tcoNoISL[kw]-1))
			}
		}
		// Reorder: sat500, lin500, sat4k, lin4k already in order.
		t.AddRow(row...)
	}
	return t, nil
}

// AblationCompressionDecode refines Figure 10: the paper's savings are
// upper bounds that ignore decompression power; this charges it.
func AblationCompressionDecode() (Table, error) {
	base := core.DefaultConfig(units.KW(4))
	plain, err := base.TCO()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Ablation A6",
		Title:  "4 kW compression savings: upper bound vs decode power charged",
		Header: []string{"algorithm", "upper-bound saving", "with decode power", "decode W"},
	}
	raw := core.DesignISLRate(units.KW(4))
	for _, alg := range compress.All() {
		upper := base
		upper.Compression = alg
		u, err := upper.TCO()
		if err != nil {
			return Table{}, err
		}
		refined := upper
		refined.IncludeDecodePower = true
		r, err := refined.TCO()
		if err != nil {
			return Table{}, err
		}
		t.AddRow(alg.Name,
			pct2(1-float64(u)/float64(plain)),
			pct2(1-float64(r)/float64(plain)),
			f1(float64(alg.DecodePower(raw))))
	}
	return t, nil
}

// AblationBatchSize sweeps the SµDC batcher: larger batches amortize
// launch overheads (modeled in the paper as energy-minimizing) but grow
// queueing latency — the Fig. 14 trade, run through the DES.
func AblationBatchSize() (Table, error) {
	app, err := workload.ByName("Crop Monitoring")
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Ablation A7",
		Title:  "batch size on the Fig. 14 pipeline (Crop Monitoring, 64 satellites)",
		Header: []string{"batch", "mean latency", "p95 latency", "worker util", "kept up"},
	}
	for _, bs := range []int{1, 4, 8, 16, 32} {
		c := netsim.DefaultConfig(app)
		c.BatchSize = bs
		c.BatchTimeout = 5 * time.Minute
		c.Duration = time.Hour
		s, err := netsim.Run(c)
		if err != nil {
			return Table{}, err
		}
		t.AddRow(fmt.Sprintf("%d", bs),
			s.MeanLatency.Truncate(time.Second).String(),
			s.P95Latency.Truncate(time.Second).String(),
			pct(s.WorkerUtilization),
			fmt.Sprintf("%v", s.KeptUp))
	}
	return t, nil
}
