package experiments

import (
	"fmt"
	"time"

	"sudc/internal/constellation"
	"sudc/internal/core"
	"sudc/internal/faults"
	"sudc/internal/netsim"
	"sudc/internal/reliability"
	"sudc/internal/sscm"
	"sudc/internal/units"
	"sudc/internal/workload"
)

// OverprovisionPoint is one spare-count setting of the overprovisioning
// sweep: the DES-measured availability under injected node deaths next
// to its analytic binomial anchor, plus the TCO share the spares add.
type OverprovisionPoint struct {
	// Spares and Nodes describe the configuration: Nodes = need + Spares.
	Spares, Nodes int
	// Need is the worker count defining full service.
	Need int
	// Measured is the mean DES availability over the replicas; Analytic
	// is reliability.MeanAvailability at the same (n, need, horizon/MTTF).
	Measured, Analytic float64
	// DegradedFraction is the mean fraction of the run spent below the
	// installed worker count (any fault active).
	DegradedFraction float64
	// SpareTCOShare is the fraction of the SµDC's total cost of ownership
	// the spare compute nodes add (compute hardware only — cold spares
	// draw no power and need no extra solar or thermal capacity).
	SpareTCOShare float64
}

// overprovisionConfig is the sweep's base scenario: a small constellation
// feeding a 4-worker SµDC whose nodes die with MTTF = 2× the simulated
// horizon, so availability visibly decays within a run.
func overprovisionConfig(app workload.App) netsim.Config {
	c := netsim.DefaultConfig(app)
	c.Constellation = constellation.Constellation{Satellites: 2, FramesPerMinute: 6}
	c.Workers = 4
	c.NeedWorkers = 4
	c.BatchSize = 4
	c.BatchTimeout = 30 * time.Second
	c.Duration = 2 * time.Hour
	c.Faults = faults.Scenario{NodeMTTF: 4 * time.Hour}
	c.Seed = 11
	return c
}

// OverprovisionSweep sweeps spare compute nodes (n = need … need+4) and
// cross-checks the DES-measured availability against the closed-form
// binomial model — the paper's §VII overprovisioning argument replayed
// through the fault-injection engine. Each spare count averages the
// time-averaged availability of `replicas` independent fault schedules.
func OverprovisionSweep(replicas int) ([]OverprovisionPoint, error) {
	base := overprovisionConfig(workload.Suite[0])
	need := base.NeedWorkers
	horizonOverT := base.Duration.Seconds() / base.Faults.NodeMTTF.Seconds()

	b, err := core.DefaultConfig(units.KW(4)).Breakdown()
	if err != nil {
		return nil, err
	}
	computeShare := b.Share(sscm.PayloadCompute)

	points := make([]OverprovisionPoint, 0, 5)
	for spares := 0; spares <= 4; spares++ {
		c := base
		c.Workers = need + spares
		all, err := netsim.RunReplicas(c, replicas, 0)
		if err != nil {
			return nil, err
		}
		var availSum, degSum float64
		for _, s := range all {
			availSum += s.Availability
			degSum += s.DegradedFraction
		}
		analytic, err := reliability.MeanAvailability(need+spares, need, horizonOverT)
		if err != nil {
			return nil, err
		}
		points = append(points, OverprovisionPoint{
			Spares:           spares,
			Nodes:            need + spares,
			Need:             need,
			Measured:         availSum / float64(len(all)),
			Analytic:         analytic,
			DegradedFraction: degSum / float64(len(all)),
			SpareTCOShare:    computeShare * float64(spares) / float64(need),
		})
	}
	return points, nil
}

// ExtOverprovision renders the overprovisioning sweep: DES availability
// vs the analytic binomial anchor, and the near-zero TCO cost of spares.
func ExtOverprovision() (Table, error) {
	points, err := OverprovisionSweep(200)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Extension E7",
		Title:  "overprovisioning a 4-worker SµDC under injected node deaths (MTTF = 2× horizon)",
		Header: []string{"spares", "nodes", "DES availability", "analytic", "|Δ|", "degraded time", "spare TCO"},
	}
	for _, p := range points {
		delta := p.Measured - p.Analytic
		if delta < 0 {
			delta = -delta
		}
		t.AddRow(fmt.Sprintf("%d", p.Spares), fmt.Sprintf("%d", p.Nodes),
			pct(p.Measured), pct(p.Analytic), pct2(delta),
			pct(p.DegradedFraction), pct2(p.SpareTCOShare))
	}
	return t, nil
}
