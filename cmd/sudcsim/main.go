// Command sudcsim runs the discrete-event simulation of the paper's
// Figure 14 pipeline: EO satellites → FSO inter-satellite link → batcher →
// GPU workers → insight analyzer, and reports whether the SµDC keeps up.
//
// Usage:
//
//	sudcsim [flags]
//
// The scenario flags (application, constellation, topology, faults,
// degradation, placement) are shared with sudcmon and listed once, in
// package sudc/cmd/internal/scenario. The flags below are sudcsim's own.
//
// Topology and degradation extras:
//
//	-shard-stats     print the synchronizer summary line (with -planes):
//	                 windows run, mean active cells and cross-cell
//	                 messages per window, and the mean proven lookahead
//	                 per cell run
//	-throttle-shed   scale the shed threshold down with the active
//	                 throttle multiplier
//	-defer-eclipse   defer partial-batch timeouts past the eclipse window
//	-horizon-years y run the compressed-horizon survivability program
//	                 instead of the DES (fleet lifecycle × degradation)
//
// Telemetry windows and SLOs:
//
//	-window m        tumbling telemetry window in minutes (0 = off; -slo
//	                 and -watch default it to 10). Windows merge at the
//	                 cross-cell watermark, so the stream is byte-identical
//	                 for any -shards value
//	-slo             evaluate the mission SLOs (availability, frame p99,
//	                 loss rate, $/frame vs the oracle floor) per window
//	                 and print the burn-rate report; alerts also land in
//	                 -trace-out recordings with attributed causes
//	-watch           print one line per completed window as the
//	                 simulation crosses it
//
// The observability flags (-metrics, -trace, -trace-out, -pprof) are
// shared with sudctool and experiments and listed once, in package
// sudc/cmd/internal/obsflags. sudcsim's -trace-out recording holds the
// frame lineage and fault events next to the spans.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sudc/cmd/internal/obsflags"
	"sudc/cmd/internal/scenario"
	"sudc/internal/degrade"
	"sudc/internal/netsim"
	"sudc/internal/obs/slo"
	"sudc/internal/obs/window"
	"sudc/internal/placement"
	"sudc/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sudcsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sudcsim", flag.ContinueOnError)
	fs.SetOutput(out)
	sf := scenario.Register(fs)
	of := obsflags.Register(fs)
	shardStats := fs.Bool("shard-stats", false, "print the sharded synchronizer summary (with -planes)")
	throttleShed := fs.Bool("throttle-shed", false, "scale the shed threshold with the throttle multiplier")
	deferEclipse := fs.Bool("defer-eclipse", false, "defer partial-batch timeouts past the eclipse window")
	horizonYears := fs.Float64("horizon-years", 0, "run the compressed-horizon survivability program over this many years")
	windowMin := fs.Float64("window", 0, "tumbling telemetry window in minutes (0 = off)")
	sloOn := fs.Bool("slo", false, "evaluate mission SLOs per window and print the burn-rate report")
	watch := fs.Bool("watch", false, "print one line per completed telemetry window")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sess, err := of.Start(out)
	if err != nil {
		return err
	}
	defer sess.Close()

	if *horizonYears > 0 {
		if err := runSurvivability(out, sf.Cal, sf.Throttle, sf.EclipseFrac, *horizonYears, sf.Seed); err != nil {
			return err
		}
		return sess.Finish()
	}
	sc, err := sf.Build()
	if err != nil {
		return err
	}
	app, cfg := sc.App, sc.Config
	if *throttleShed || *deferEclipse {
		// The degraded-mode policies compile the schedule even at
		// severity 0.
		cfg.Degrade = &sc.Profile
		cfg.ThrottleShed = *throttleShed
		cfg.DeferInEclipse = *deferEclipse
	}
	cfg.Obs = sess.Registry().Scope("netsim")
	cfg.Trace = sess.Recorder()

	if *windowMin < 0 {
		return fmt.Errorf("sudcsim: -window must be non-negative, got %v", *windowMin)
	}
	var wins []window.Window
	var sloCfg slo.Config
	if *sloOn || *watch || *windowMin > 0 {
		if *windowMin == 0 {
			*windowMin = 10
		}
		cfg.Window = time.Duration(*windowMin * float64(time.Minute))
		cfg.OnWindow = func(w window.Window) {
			wins = append(wins, w)
			if *watch {
				fmt.Fprintf(out, "w%03d [%6.1fm,%6.1fm) gen %5d done %5d avail %6.2f%% p99 %6.1fs loss %5.2f%%\n",
					w.Index, w.Start/60, w.End/60,
					w.Counts[window.CntGenerated], w.Counts[window.CntProcessed],
					100*w.Availability(), w.LatQuantile(0.99), 100*w.LossRate())
			}
		}
		if *sloOn {
			sloCfg = slo.DefaultConfig()
			cfg.SLO = &sloCfg
		}
	}

	sp := sess.Registry().StartSpan("sudcsim/run")
	sp.SetSim(cfg.Duration.Seconds())
	s, err := netsim.Run(cfg)
	sp.End()
	if err != nil {
		return err
	}

	if sf.Planes > 0 {
		fmt.Fprintf(out, "%s: %d planes × %d satellites → SµDC every %d planes (%d × %v workers each), %v ISL, batch %d\n\n",
			app.Name, sf.Planes, sf.SatsPerPlane, sf.SudcEvery, sc.Workers, app.GPUPower, cfg.ISLRate, sf.Batch)
	} else {
		fmt.Fprintf(out, "%s: %d satellites → %.1f kW SµDC (%d × %v workers), %v ISL, batch %d\n\n",
			app.Name, sf.Satellites, sf.PowerKW, cfg.Workers, app.GPUPower, cfg.ISLRate, sf.Batch)
	}
	fmt.Fprintf(out, "  frames generated     %d\n", s.FramesGenerated)
	fmt.Fprintf(out, "  frames processed     %d\n", s.FramesProcessed)
	fmt.Fprintf(out, "  insights downlinked  %d\n", s.InsightsDownlinked)
	fmt.Fprintf(out, "  backlog              %d\n", s.Backlog)
	fmt.Fprintf(out, "  mean latency         %v (p95 %v)\n",
		s.MeanLatency.Truncate(time.Millisecond), s.P95Latency.Truncate(time.Millisecond))
	fmt.Fprintf(out, "  ISL utilization      %.1f%%\n", 100*s.ISLUtilization)
	fmt.Fprintf(out, "  worker utilization   %.1f%%\n", 100*s.WorkerUtilization)
	fmt.Fprintf(out, "  compute energy       %.1f kWh\n", s.ComputeEnergy.WattHours()/1e3)
	if sf.Planes > 0 {
		fmt.Fprintf(out, "  cross-shard frames   %d\n", s.CrossShardFrames)
	}
	if *shardStats && sf.Planes > 0 {
		sy := s.Sync
		rounds := sy.Rounds
		if rounds < 1 {
			rounds = 1
		}
		runs := sy.CellRuns
		if runs < 1 {
			runs = 1
		}
		fmt.Fprintf(out, "  sync: %d windows, %.1f active cells/window, %.1f msgs/window, %.3fs mean lookahead\n",
			sy.Rounds, float64(sy.CellRuns)/float64(rounds),
			float64(sy.CrossMsgs)/float64(rounds), sy.LookaheadSum/float64(runs))
	}
	if cfg.Faults.Enabled() || sf.Spares > 0 {
		if sf.Planes > 0 {
			fmt.Fprintf(out, "\n  fault injection (%d workers per SµDC)\n", sc.Workers)
		} else {
			fmt.Fprintf(out, "\n  fault injection (%d needed + %d spare workers)\n", cfg.NeedWorkers, sf.Spares)
		}
		fmt.Fprintf(out, "  availability         %.2f%%\n", 100*s.Availability)
		fmt.Fprintf(out, "  degraded time        %.1f%%\n", 100*s.DegradedFraction)
		fmt.Fprintf(out, "  worker downtime      %v\n", s.WorkerDowntime.Truncate(time.Second))
		fmt.Fprintf(out, "  ISL downtime         %v\n", s.ISLDowntime.Truncate(time.Second))
		fmt.Fprintf(out, "  frames retried       %d\n", s.FramesRetried)
		fmt.Fprintf(out, "  frames re-dispatched %d\n", s.FramesRedispatched)
		fmt.Fprintf(out, "  frames shed          %d\n", s.FramesShed)
		fmt.Fprintf(out, "  frames lost          %d\n", s.FramesLost)
	}
	if cfg.Degrade != nil {
		fmt.Fprintf(out, "\n  degradation (%s, severity %.2f)\n", sf.Cal.Name, sf.Throttle)
		fmt.Fprintf(out, "  mean rate mult       %.3f\n", s.MeanRateMult)
		fmt.Fprintf(out, "  throttled time       %v (%.1f%%)\n",
			s.ThrottledTime.Truncate(time.Second), 100*s.ThrottledTime.Seconds()/cfg.Duration.Seconds())
		fmt.Fprintf(out, "  brownout time        %v (%.1f%%)\n",
			s.BrownoutTime.Truncate(time.Second), 100*s.BrownoutTime.Seconds()/cfg.Duration.Seconds())
		fmt.Fprintf(out, "  batches deferred     %d\n", s.BatchesDeferred)
	}
	if cfg.Placement != nil {
		m := cfg.Placement.Model
		fmt.Fprintf(out, "\n  placement (%s policy, downlink %v, latency weight $%g/frame-s)\n",
			sf.Placement, cfg.Placement.DownlinkRate, sf.LatencyWeight)
		fmt.Fprintf(out, "  %-12s %8s %12s %12s %12s\n", "tier", "frames", "mean", "p99", "$/frame")
		for t := placement.Tier(0); t < placement.NumTiers; t++ {
			fmt.Fprintf(out, "  %-12s %8d %12v %12v %12.4g\n", t.String(), s.TierFrames[t],
				s.TierMeanLatency[t].Truncate(time.Millisecond),
				s.TierP99Latency[t].Truncate(time.Millisecond),
				m.Tiers[t].DollarsPerFrame)
		}
		fmt.Fprintf(out, "  realized mean cost   $%.4g/frame (oracle floor $%.4g)\n",
			s.PlacedMeanCost, s.OracleMeanCost)
	}
	if s.KeptUp {
		fmt.Fprintln(out, "\n  → the SµDC keeps up with the constellation")
	} else {
		fmt.Fprintln(out, "\n  → UNDERSIZED: the SµDC falls behind")
	}
	if *sloOn {
		if cfg.Placement != nil {
			sloCfg.CostFloor = cfg.Placement.Model.OracleCost()
		}
		fmt.Fprintln(out)
		slo.WriteReport(out, sloCfg, wins, slo.Run(sloCfg, wins))
	}
	return sess.Finish()
}

// runSurvivability executes the compressed-horizon program: the
// degradation schedule collapsed to its orbit-averaged capacity factor
// and replayed through the fleet-maintenance lifecycle.
func runSurvivability(out io.Writer, cal degrade.Calibration, severity, eclipseFrac, years float64, seed int64) error {
	cfg := degrade.DefaultSurvivalConfig(severity)
	cfg.Profile.Cal = cal
	cfg.Profile.EclipseFraction = eclipseFrac
	cfg.Policy.Horizon = units.Years(years)
	cfg.Seed = seed
	r, err := degrade.Survive(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "survivability: %g-year program, %d+%d satellites, %s at severity %.2f\n\n",
		years, cfg.Policy.Target, cfg.Policy.Spares, cal.Name, severity)
	fmt.Fprintf(out, "  capacity factor      %.3f\n", r.CapacityFactor)
	fmt.Fprintf(out, "  units built          %.1f\n", r.UnitsBuilt)
	fmt.Fprintf(out, "  head-count avail     %.1f%%\n", 100*r.Availability)
	fmt.Fprintf(out, "  capacity avail       %.1f%%\n", 100*r.CapacityAvailability)
	fmt.Fprintf(out, "  mean fleet capacity  %.2f\n\n", r.MeanCapacity)
	fmt.Fprintln(out, "  year  mean operational  availability  mean capacity")
	for _, y := range r.Years {
		fmt.Fprintf(out, "  %4d  %16.2f  %11.1f%%  %13.2f\n",
			y.Year, y.MeanOperational, 100*y.Availability, y.MeanCapacity)
	}
	return nil
}
