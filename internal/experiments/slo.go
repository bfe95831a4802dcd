package experiments

// Extension E12: SLO attainment under COTS degradation. E9 showed the
// spare margin being eaten by throttle and brownout as a shift in mean
// availability; E12 re-asks the question the way an operator would —
// through the windowed SLO engine. Each cell of the same severity ×
// eclipse-fraction grid runs the DES with 10-minute tumbling telemetry
// windows and evaluates the default objectives (availability, frame
// p99, loss rate) with multi-window burn-rate alerting. The headline is
// *where* the alerts land: the share firing in eclipse-exit throttle
// windows — windows with throttle occupancy whose own or preceding
// window saw eclipse — rises with severity, because the post-eclipse
// catch-up happens exactly when the thermal envelope clamps the
// service rate.

import (
	"time"

	"sudc/internal/degrade"
	"sudc/internal/netsim"
	"sudc/internal/obs/slo"
	"sudc/internal/obs/window"
	"sudc/internal/par"
)

// SLOPoint is one cell of the E12 severity × eclipse-fraction grid,
// averaged over independent fault-schedule replicas.
type SLOPoint struct {
	Severity, EclipseFraction float64
	// Attainment is the replica-mean fraction of windows with every
	// active objective within budget; Alerts the replica-mean count of
	// burn-rate alert firings.
	Attainment, Alerts float64
	// EclipseExitShare is the fraction of all alerts (across replicas)
	// that fired in an eclipse-exit throttle window: ThrottleSec > 0
	// and eclipse occupancy in the same or the preceding window.
	EclipseExitShare float64
	// Attributed is the fraction of all alerts carrying a named cause
	// (not "unattributed") — the attribution-coverage check.
	Attributed float64
}

// eclipseExit reports whether window i of wins is an eclipse-exit
// throttle window: the service rate is clamped while the cell is in —
// or just out of — eclipse.
func eclipseExit(wins []window.Window, i int) bool {
	if wins[i].ThrottleSec <= 0 {
		return false
	}
	if wins[i].EclipseSec > 0 {
		return true
	}
	return i > 0 && wins[i-1].EclipseSec > 0
}

// sloRun is one replica run of an E12 cell.
type sloRun struct {
	severity, eclipseFrac float64
	replica               int
}

// sloReplica is one replica's contribution to its E12 cell.
type sloReplica struct {
	attainment               float64
	alerts, exit, attributed int
}

// SLOSweep runs the E12 grid over the E9 base scenario (spare-
// provisioned SµDC, 2-hour horizon crossing a full orbit), each cell
// averaging `replicas` DES runs with forked seeds. Windowed telemetry
// uses per-run OnWindow state, so replicas run through netsim.Run
// directly rather than RunReplicas. Every cell × replica run goes
// through the shared parallel engine, and each cell's replica results
// are summed in replica order afterwards, so every float sum is
// bit-identical to a serial loop's for any worker count.
func SLOSweep(severities, eclipseFracs []float64, replicas int) ([]SLOPoint, error) {
	base := degradationConfig()
	base.Window = 10 * time.Minute
	cfg := slo.DefaultConfig()
	var runs []sloRun
	for _, ef := range eclipseFracs {
		for _, sev := range severities {
			for r := 0; r < replicas; r++ {
				runs = append(runs, sloRun{severity: sev, eclipseFrac: ef, replica: r})
			}
		}
	}
	reps, err := par.MapErr(runs, func(run sloRun) (sloReplica, error) {
		c := base
		p := degrade.COTSProfile(run.severity)
		p.EclipseFraction = run.eclipseFrac
		c.Degrade = &p
		c.Seed = par.ForkSeed(base.Seed, run.replica)
		var wins []window.Window
		c.OnWindow = func(w window.Window) { wins = append(wins, w) }
		if _, err := netsim.Run(c); err != nil {
			return sloReplica{}, err
		}
		rep := slo.Run(cfg, wins)
		out := sloReplica{attainment: rep.Attainment, alerts: len(rep.Alerts)}
		for _, a := range rep.Alerts {
			if eclipseExit(wins, a.Window) {
				out.exit++
			}
			if a.Cause != "unattributed" {
				out.attributed++
			}
		}
		return out, nil
	}, par.Chunk(1))
	if err != nil {
		return nil, err
	}

	points := make([]SLOPoint, 0, len(severities)*len(eclipseFracs))
	next := 0
	for _, ef := range eclipseFracs {
		for _, sev := range severities {
			pt := SLOPoint{Severity: sev, EclipseFraction: ef}
			var alerts, exit, attributed int
			for r := 0; r < replicas; r++ {
				rep := reps[next]
				next++
				pt.Attainment += rep.attainment
				alerts += rep.alerts
				exit += rep.exit
				attributed += rep.attributed
			}
			n := float64(replicas)
			pt.Attainment /= n
			pt.Alerts = float64(alerts) / n
			if alerts > 0 {
				pt.EclipseExitShare = float64(exit) / float64(alerts)
				pt.Attributed = float64(attributed) / float64(alerts)
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// ExtSLO renders E12: burn-rate alerting over the E9 degradation grid.
func ExtSLO() (Table, error) {
	points, err := SLOSweep([]float64{0, 0.5, 1}, []float64{0.25, 0.38, 0.50}, 20)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Extension E12",
		Title:  "SLO attainment and burn-rate alerts over the E9 degradation grid (10 min windows)",
		Header: []string{"severity", "eclipse frac", "attainment", "alerts/run", "eclipse-exit share", "attributed"},
	}
	for _, p := range points {
		t.AddRow(f2(p.Severity), f2(p.EclipseFraction), pct(p.Attainment),
			f2(p.Alerts), pct(p.EclipseExitShare), pct(p.Attributed))
	}
	return t, nil
}
