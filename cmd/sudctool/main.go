// Command sudctool designs and prices a Space Microdatacenter from the
// command line: it closes the physical design (power, thermal, mass,
// propulsion) for a given compute budget and prints the mass budget and
// the SSCM-SµDC cost breakdown.
//
// Usage:
//
//	sudctool [flags]
//
//	-power kW        compute power budget in kW (default 4)
//	-lifetime years  mission lifetime (default 5)
//	-device name     compute device: "RTX 3090", "A100", "H100" (default RTX 3090)
//	-isl gbps        ISL capacity in Gbit/s (0 = auto-size for workload)
//	-no-isl          build without an inter-satellite link
//	-compress name   compression: none, ccsds, jpeg2000, neural
//	-altitude km     orbit altitude (default 550)
//	-seer            price with the SEER-like parameter set instead
//	-units n         also price a production run of n units (Wright b=0.75)
//	-json            emit a machine-readable JSON report instead of text
//
// The observability flags (-metrics, -trace, -trace-out, -pprof) are
// shared with sudcsim and experiments and listed once, in package
// sudc/cmd/internal/obsflags; -metrics adds the design/* gauges to the
// snapshot. With -json their output goes to stderr, so stdout holds
// exactly one JSON document.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sudc/cmd/internal/obsflags"
	"sudc/internal/compress"
	"sudc/internal/core"
	"sudc/internal/hardware"
	"sudc/internal/orbit"
	"sudc/internal/sscm"
	"sudc/internal/units"
	"sudc/internal/wright"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sudctool:", err)
		os.Exit(1)
	}
}

// run writes the report to out. Observability output goes to out too,
// except under -json, where it goes to errOut.
func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("sudctool", flag.ContinueOnError)
	fs.SetOutput(out)
	powerKW := fs.Float64("power", 4, "compute power budget in kW")
	lifetime := fs.Float64("lifetime", 5, "mission lifetime in years")
	device := fs.String("device", "RTX 3090", "compute device from the Table II catalog")
	islGbps := fs.Float64("isl", 0, "ISL capacity in Gbit/s (0 = auto)")
	noISL := fs.Bool("no-isl", false, "build without an inter-satellite link")
	compression := fs.String("compress", "none", "compression: none, ccsds, jpeg2000, neural")
	altitudeKM := fs.Float64("altitude", 550, "orbit altitude in km")
	seer := fs.Bool("seer", false, "use the SEER-like cost parameter set")
	nUnits := fs.Int("units", 1, "production run length for Wright's-law pricing")
	asJSON := fs.Bool("json", false, "emit a machine-readable JSON report")
	of := obsflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	obsOut := out
	if *asJSON {
		obsOut = errOut
	}
	sess, err := of.Start(obsOut)
	if err != nil {
		return err
	}
	defer sess.Close()
	reg := sess.Registry()

	cfg := core.DefaultConfig(units.KW(*powerKW))
	cfg.Lifetime = units.Years(*lifetime)
	cfg.Orbit = orbit.LEO(*altitudeKM * 1e3)
	cfg.ISLRate = units.GbpsOf(*islGbps)
	cfg.OmitISL = *noISL
	dev, err := hardware.ByName(*device)
	if err != nil {
		return err
	}
	cfg.Server = hardware.DefaultServer(dev)
	switch strings.ToLower(*compression) {
	case "", "none":
	case "ccsds":
		cfg.Compression = compress.CCSDS
	case "jpeg2000":
		cfg.Compression = compress.JPEG2000
	case "neural":
		cfg.Compression = compress.Neural
	default:
		return fmt.Errorf("unknown compression %q", *compression)
	}
	if *seer {
		cfg.CostModel = sscm.Alt()
	}

	sp := reg.StartSpan("sudctool/build")
	d, err := cfg.Build()
	sp.End()
	if err != nil {
		return err
	}
	reg.Gauge("design/wet_mass_kg").Set(d.WetMass.Kilograms())
	reg.Gauge("design/dry_mass_kg").Set(d.DryMass.Kilograms())
	reg.Gauge("design/eol_power_w").Set(float64(d.EOLPower))
	reg.Gauge("design/radiator_m2").Set(d.Thermal.Area.SquareMeters())

	if *asJSON {
		if err := writeJSON(out, cfg, d); err != nil {
			return err
		}
		return sess.Finish()
	}

	fmt.Fprintf(out, "SµDC design — %s compute (%s), %s, %v lifetime\n\n",
		cfg.ComputePower, dev.Name, cfg.Orbit, cfg.Lifetime)
	fmt.Fprintf(out, "  ISL capacity        %v (%d optical heads, %v)\n",
		d.InstalledISLRate, d.ISL.Heads, d.ISL.Power)
	fmt.Fprintf(out, "  EOL system power    %v\n", d.EOLPower)
	fmt.Fprintf(out, "  BOL array power     %v (%.1f m² array)\n",
		units.Power(d.Drivers.BOLPower), d.EPS.ArrayArea.SquareMeters())
	fmt.Fprintf(out, "  radiator            %.1f m² at %v\n",
		d.Thermal.Area.SquareMeters(), cfg.Radiator.Temperature)
	fmt.Fprintf(out, "  heat pump power     %v\n", d.Thermal.PumpPower)
	fmt.Fprintf(out, "\nMass budget (wet %s):\n", d.WetMass)
	for _, it := range d.MassBreakdown() {
		fmt.Fprintf(out, "  %-16s %8.1f kg  (%4.1f%%)\n",
			it.Name, it.Mass.Kilograms(), 100*float64(it.Mass)/float64(d.WetMass))
	}

	sp = reg.StartSpan("sudctool/cost")
	b, err := d.Cost()
	sp.End()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nCost breakdown (%s):\n", cfg.CostModel.Name)
	for _, it := range b.SortedItems() {
		fmt.Fprintf(out, "  %-16s NRE %10s  RE %10s  (%4.1f%%)\n",
			it.Subsystem, it.Cost.NRE, it.Cost.RE, 100*b.Share(it.Subsystem))
	}
	tot := b.Total()
	fmt.Fprintf(out, "\n  first-unit TCO    %s  (NRE %s + RE %s)\n", b.TCO(), tot.NRE, tot.RE)

	if *nUnits > 1 {
		cum, err := wright.DefaultAerospace.CumulativeCost(tot.RE, *nUnits)
		if err != nil {
			return err
		}
		last, _ := wright.DefaultAerospace.UnitCost(tot.RE, *nUnits)
		fmt.Fprintf(out, "  %d-unit run (b=0.75): total %s, marginal unit %s\n",
			*nUnits, tot.NRE+cum, last)
	}
	return sess.Finish()
}

// jsonReport is the machine-readable output of -json.
type jsonReport struct {
	ComputePowerW float64         `json:"compute_power_w"`
	Device        string          `json:"device"`
	LifetimeYears float64         `json:"lifetime_years"`
	ISLRateBps    float64         `json:"isl_rate_bps"`
	EOLPowerW     float64         `json:"eol_power_w"`
	BOLPowerW     float64         `json:"bol_power_w"`
	RadiatorM2    float64         `json:"radiator_m2"`
	DryMassKg     float64         `json:"dry_mass_kg"`
	WetMassKg     float64         `json:"wet_mass_kg"`
	Mass          []jsonMassRow   `json:"mass_budget"`
	Cost          *sscm.Breakdown `json:"cost_breakdown"`
}

type jsonMassRow struct {
	Name   string  `json:"name"`
	MassKg float64 `json:"mass_kg"`
}

func writeJSON(out io.Writer, cfg core.Config, d core.Design) error {
	b, err := d.Cost()
	if err != nil {
		return err
	}
	r := jsonReport{
		ComputePowerW: float64(cfg.ComputePower),
		Device:        cfg.Server.Device.Name,
		LifetimeYears: float64(cfg.Lifetime),
		ISLRateBps:    float64(d.InstalledISLRate),
		EOLPowerW:     float64(d.EOLPower),
		BOLPowerW:     d.Drivers.BOLPower,
		RadiatorM2:    d.Thermal.Area.SquareMeters(),
		DryMassKg:     d.DryMass.Kilograms(),
		WetMassKg:     d.WetMass.Kilograms(),
		Cost:          &b,
	}
	for _, it := range d.MassBreakdown() {
		r.Mass = append(r.Mass, jsonMassRow{Name: it.Name, MassKg: it.Mass.Kilograms()})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
