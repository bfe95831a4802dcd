// Package scenario defines the scenario flags that sudcsim and sudcmon
// share — one list, registered identically by both commands — and maps
// them to a netsim.Config.
//
//	-app name        Table III application (default "Flood Detection")
//	-satellites n    EO constellation size (default 64)
//	-power kW        SµDC compute power (default 4)
//	-isl gbps        ISL capacity (default 30)
//	-batch n         batch size (default 8)
//	-filter f        edge filtering rate 0..1 (default 0)
//	-hours h         simulated duration (default 2)
//	-seed n          RNG seed (default 1)
//
// Constellation topology (a Walker-style multi-plane graph instead of
// the one-cell star, simulated in parallel cell shards with
// conservative cross-cell synchronization):
//
//	-planes n        orbital planes; > 0 runs the Walker topology, whose
//	                 capture satellites replace -satellites (setting
//	                 both is an error)
//	-sats-per-plane n  capture satellites per plane (default 16)
//	-sudc-every k    SµDC in every k-th plane; the rest relay around the
//	                 inter-plane ring (default 1)
//	-isl-delay ms    inter-plane ISL propagation delay (default 200)
//	-shards n        parallel cell shards, 0 = one per CPU; any value
//	                 yields byte-identical results
//
// Fault injection and degraded-mode operation:
//
//	-mttf h          mean time to permanent worker death in hours (0 = off)
//	-sefi m          mean time between transient SEFI hangs in minutes (0 = off)
//	-sefi-rec s      mean SEFI watchdog recovery in seconds (default 30)
//	-outage m        mean time between ISL outages in minutes (0 = off)
//	-outage-dur s    mean ISL outage duration in seconds (default 60)
//	-spares n        spare workers beyond the sized need (default 0)
//	-retries n       ISL retry budget per frame, 0 = unlimited (default 8)
//	-shed n          input-queue length that triggers load shedding
//	                 (0 = off, -1 = shed every queued frame)
//
// Environment-coupled degradation (COTS-calibrated thermal throttling,
// eclipse power brownouts; see internal/degrade):
//
//	-throttle s      degradation severity 0..1; > 0 layers the COTS
//	                 schedule over the run (0 = off)
//	-cots name       hardware calibration: xing-cots, integrated-panel
//	                 (default xing-cots); an unknown name fails flag
//	                 parsing even when -throttle is 0
//	-eclipse-frac f  eclipse fraction override; < 0 derives it from the
//	                 default EO orbit (default -1)
//
// Compute placement ("when to compute in space"; see
// internal/placement): each frame is routed across four tiers —
// onboard flight computer, orbital SµDC, ground-station edge,
// terrestrial cloud — under a latency/cost objective:
//
//	-placement p     routing policy: static-onboard, static-space,
//	                 static-edge, static-cloud, greedy, queue, oracle
//	                 ("" = off, every frame takes the SµDC pipeline)
//	-downlink-gbps f aggregate downlink capacity override in Gbit/s
//	                 (0 = derived from the default ground network)
//	-edge-servers n  ground-edge GPU pool size (default 8)
//	-latency-weight w  latency price in $/frame-second (default 1e-4)
//	-place-compress a  onboard compression before downlink: none, ccsds,
//	                 jpeg2000, neural (default none)
package scenario

import (
	"flag"
	"fmt"
	"time"

	"sudc/internal/compress"
	"sudc/internal/degrade"
	"sudc/internal/faults"
	"sudc/internal/netsim"
	"sudc/internal/placement"
	"sudc/internal/topo"
	"sudc/internal/units"
	"sudc/internal/workload"
)

// Flags holds the parsed scenario flag values.
type Flags struct {
	App        string
	Satellites int
	PowerKW    float64
	ISLGbps    float64
	Batch      int
	Filter     float64
	Hours      float64
	Seed       int64

	Planes       int
	SatsPerPlane int
	SudcEvery    int
	ISLDelayMs   float64
	Shards       int

	MTTFHours     float64
	SEFIMinutes   float64
	SEFIRecSec    float64
	OutageMinutes float64
	OutageDurSec  float64
	Spares        int
	Retries       int
	Shed          int

	Throttle    float64
	Cal         degrade.Calibration // -cots, resolved at parse time
	EclipseFrac float64

	Placement     string
	DownlinkGbps  float64
	EdgeServers   int
	LatencyWeight float64
	PlaceCompress string

	fs *flag.FlagSet // the set Register defined the flags on
}

// Register defines the scenario flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{Cal: degrade.XingCOTS, fs: fs}
	fs.StringVar(&f.App, "app", "Flood Detection", "Table III application")
	fs.IntVar(&f.Satellites, "satellites", 64, "EO constellation size")
	fs.Float64Var(&f.PowerKW, "power", 4, "SµDC compute power in kW")
	fs.Float64Var(&f.ISLGbps, "isl", 30, "ISL capacity in Gbit/s")
	fs.IntVar(&f.Batch, "batch", 8, "batch size")
	fs.Float64Var(&f.Filter, "filter", 0, "edge filtering rate [0,1)")
	fs.Float64Var(&f.Hours, "hours", 2, "simulated duration in hours")
	fs.Int64Var(&f.Seed, "seed", 1, "RNG seed")
	fs.IntVar(&f.Planes, "planes", 0, "orbital planes; > 0 runs the Walker topology")
	fs.IntVar(&f.SatsPerPlane, "sats-per-plane", 16, "capture satellites per plane (with -planes)")
	fs.IntVar(&f.SudcEvery, "sudc-every", 1, "SµDC placed every k-th plane; the rest relay (with -planes)")
	fs.Float64Var(&f.ISLDelayMs, "isl-delay", 200, "inter-plane ISL propagation delay in ms (with -planes)")
	fs.IntVar(&f.Shards, "shards", 0, "parallel cell shards for topology runs (0 = one per CPU)")
	fs.Float64Var(&f.MTTFHours, "mttf", 0, "mean time to permanent worker death in hours (0 = off)")
	fs.Float64Var(&f.SEFIMinutes, "sefi", 0, "mean time between SEFI hangs in minutes (0 = off)")
	fs.Float64Var(&f.SEFIRecSec, "sefi-rec", 30, "mean SEFI recovery in seconds")
	fs.Float64Var(&f.OutageMinutes, "outage", 0, "mean time between ISL outages in minutes (0 = off)")
	fs.Float64Var(&f.OutageDurSec, "outage-dur", 60, "mean ISL outage duration in seconds")
	fs.IntVar(&f.Spares, "spares", 0, "spare workers beyond the sized need")
	fs.IntVar(&f.Retries, "retries", 8, "ISL retry budget per frame (0 = unlimited)")
	fs.IntVar(&f.Shed, "shed", 0, "input-queue length that triggers load shedding (0 = off, -1 = shed everything)")
	fs.Float64Var(&f.Throttle, "throttle", 0, "COTS degradation severity 0..1 (0 = off)")
	// Resolving -cots as it is parsed rejects an unknown calibration
	// whether or not the run degrades.
	fs.Func("cots", "COTS hardware calibration `name` (default \"xing-cots\")", func(name string) (err error) {
		f.Cal, err = degrade.CalibrationByName(name)
		return err
	})
	fs.Float64Var(&f.EclipseFrac, "eclipse-frac", -1, "eclipse fraction override (< 0 = orbit-derived)")
	fs.StringVar(&f.Placement, "placement", "", "placement policy: static-<tier>, greedy, queue, oracle (\"\" = off)")
	fs.Float64Var(&f.DownlinkGbps, "downlink-gbps", 0, "aggregate downlink capacity override in Gbit/s (0 = derived)")
	fs.IntVar(&f.EdgeServers, "edge-servers", 8, "ground-edge GPU pool size (with -placement)")
	fs.Float64Var(&f.LatencyWeight, "latency-weight", 1e-4, "latency price in $/frame-second (with -placement)")
	fs.StringVar(&f.PlaceCompress, "place-compress", "", "onboard compression before downlink: none, ccsds, jpeg2000, neural")
	return f
}

// Scenario is a built run: the simulation config plus the values the
// commands report alongside its results.
type Scenario struct {
	Config netsim.Config
	App    workload.App
	// Workers is the worker count -power buys plus the spares, installed
	// in every SµDC.
	Workers int
	// Profile is the COTS degradation profile the flags describe.
	// Config.Degrade points at it when -throttle is positive.
	Profile degrade.Profile
}

// Build maps the flags to a scenario.
func (f *Flags) Build() (*Scenario, error) {
	app, err := workload.ByName(f.App)
	if err != nil {
		return nil, err
	}
	if f.Spares < 0 {
		return nil, fmt.Errorf("negative spares %d", f.Spares)
	}
	if f.Throttle < 0 {
		return nil, fmt.Errorf("negative throttle severity %v", f.Throttle)
	}
	if f.DownlinkGbps < 0 {
		return nil, fmt.Errorf("negative downlink rate %v Gbit/s", f.DownlinkGbps)
	}
	if f.Planes > 0 && f.set("satellites") {
		return nil, fmt.Errorf("-satellites sizes only the star; a -planes run has -planes × -sats-per-plane = %d capture satellites",
			f.Planes*f.SatsPerPlane)
	}
	sized := max(int(f.PowerKW*1000/float64(app.GPUPower)), 1)
	sc := &Scenario{App: app, Workers: sized + f.Spares}

	cfg := &sc.Config
	if f.Planes > 0 {
		// Every SµDC plane installs the full complement, which defines
		// full service in its cell.
		g, err := topo.Walker(f.Planes, f.SatsPerPlane, sc.Workers, f.SudcEvery,
			time.Duration(f.ISLDelayMs*float64(time.Millisecond)))
		if err != nil {
			return nil, err
		}
		*cfg = netsim.TopologyConfig(app, g)
	} else {
		*cfg = netsim.DefaultConfig(app)
		cfg.Constellation.Satellites = f.Satellites
		cfg.Workers = sc.Workers
		cfg.NeedWorkers = sized
	}
	cfg.Shards = f.Shards
	cfg.Constellation.FilterRate = f.Filter
	cfg.ISLRate = units.GbpsOf(f.ISLGbps)
	cfg.BatchSize = f.Batch
	cfg.Duration = time.Duration(f.Hours * float64(time.Hour))
	cfg.Seed = f.Seed
	cfg.Faults = faults.Scenario{
		NodeMTTF:      time.Duration(f.MTTFHours * float64(time.Hour)),
		SEFIMTBE:      time.Duration(f.SEFIMinutes * float64(time.Minute)),
		ISLOutageMTBF: time.Duration(f.OutageMinutes * float64(time.Minute)),
	}
	if cfg.Faults.SEFIMTBE > 0 {
		cfg.Faults.SEFIRecovery = time.Duration(f.SEFIRecSec * float64(time.Second))
	}
	if cfg.Faults.ISLOutageMTBF > 0 {
		cfg.Faults.ISLOutageDuration = time.Duration(f.OutageDurSec * float64(time.Second))
	}
	cfg.RetryLimit = f.Retries
	cfg.ShedThreshold = f.Shed

	sc.Profile = degrade.COTSProfile(f.Throttle)
	sc.Profile.Cal = f.Cal
	sc.Profile.EclipseFraction = f.EclipseFrac
	if f.Throttle > 0 {
		cfg.Degrade = &sc.Profile
	}
	if f.Placement != "" {
		if cfg.Placement, err = f.placement(app, sized, cfg); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// set reports whether the command line set the named flag.
func (f *Flags) set(name string) bool {
	found := false
	f.fs.Visit(func(fl *flag.Flag) { found = found || fl.Name == name })
	return found
}

// placement prices the four tiers for the scenario and applies the
// placement flags.
func (f *Flags) placement(app workload.App, sized int, cfg *netsim.Config) (*placement.Config, error) {
	pol, err := placement.PolicyByName(f.Placement)
	if err != nil {
		return nil, err
	}
	alg, err := compress.ByName(f.PlaceCompress)
	if err != nil {
		return nil, err
	}
	scen := placement.DefaultScenario(app)
	scen.FramesPerMinute = cfg.Constellation.FramesPerMinute
	scen.Satellites = f.Satellites
	if cfg.Topology != nil {
		// A graph defines its own capture satellites; -satellites
		// only sizes the star.
		scen.Satellites = cfg.Topology.Sats()
	}
	scen.SpacePower = units.KW(f.PowerKW)
	scen.Workers = sized
	scen.ISLRate = cfg.ISLRate
	scen.EdgeServers = f.EdgeServers
	scen.LatencyWeight = f.LatencyWeight
	if alg.Ratio > 1 {
		scen.Compression = alg
	}
	pc, err := scen.Config(pol)
	if err != nil {
		return nil, err
	}
	if f.DownlinkGbps > 0 {
		pc.DownlinkRate = units.GbpsOf(f.DownlinkGbps)
	}
	return pc, nil
}
