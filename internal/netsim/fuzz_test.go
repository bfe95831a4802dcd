package netsim

import (
	"testing"
	"time"

	"sudc/internal/constellation"
	"sudc/internal/faults"
	"sudc/internal/obs"
	"sudc/internal/obs/window"
	"sudc/internal/topo"
	"sudc/internal/units"
	"sudc/internal/workload"
)

// FuzzConfigValidate throws arbitrary field values at Validate — it must
// classify every configuration without panicking, and must reject a
// Window that cuts Duration into more than window.MaxWindows windows —
// and, when the config is valid and small enough to simulate quickly,
// runs it to check that a validated config never fails or breaks frame
// conservation, and that with obs on every series holds one point per
// whole window. planes selects the layout: 0 is the nil-Topology star,
// 1 the explicit topo.Star, and more a Walker graph with an SµDC in
// every plane.
func FuzzConfigValidate(f *testing.F) {
	f.Add(2, 6.0, 2, 4, 30.0, 0.2, 300.0, 0.0, 0.0, 0.0, 0, 60.0, true, 0, 0, 0)
	f.Add(64, 1.2, 33, 8, 120.0, 0.2, 600.0, 3600.0, 0.0, 0.0, 8, 0.0, true, 0, 0, 0)
	f.Add(1, 0.5, 1, 1, 1.0, 0.0, 60.0, 60.0, 30.0, 10.0, 1, 7.0, true, 16, 0, 0)
	f.Add(-3, -1.0, 0, -2, -5.0, 1.5, 0.0, -1.0, 5.0, -2.0, -1, -0.1, false, -9, 0, 0)
	// NeedWorkers on a one-cell graph (accepted) and on a two-cell
	// Walker (rejected).
	f.Add(4, 6.0, 2, 4, 30.0, 0.2, 300.0, 0.0, 0.0, 0.0, 0, 0.0, true, 0, 2, 1)
	f.Add(2, 6.0, 2, 4, 30.0, 0.2, 300.0, 0.0, 0.0, 0.0, 0, 0.0, false, 0, 1, 2)
	// 300,000 windows of 1 ms (rejected), and a windowed two-plane
	// Walker whose cells close windows at the runner's watermark.
	f.Add(2, 6.0, 2, 4, 30.0, 0.2, 300.0, 0.0, 0.0, 0.0, 0, 0.001, true, 0, 0, 0)
	f.Add(2, 6.0, 2, 4, 30.0, 0.2, 600.0, 0.0, 0.0, 120.0, 0, 90.0, true, 0, 0, 2)
	f.Fuzz(func(t *testing.T, sats int, fpm float64, workers, batch int,
		timeoutS, insight, durS, mttfS, sefiS, outageS float64,
		retries int, windowS float64, obsOn bool, shed, need, planes int) {
		c := Config{
			Constellation:   constellation.Constellation{Satellites: sats, FramesPerMinute: fpm},
			App:             workload.Suite[0],
			ISLRate:         units.GbpsOf(30),
			Workers:         workers,
			BatchSize:       batch,
			BatchTimeout:    time.Duration(timeoutS * float64(time.Second)),
			InsightFraction: insight,
			Duration:        time.Duration(durS * float64(time.Second)),
			Seed:            1,
			Faults: faults.Scenario{
				NodeMTTF:          time.Duration(mttfS * float64(time.Second)),
				SEFIMTBE:          time.Duration(sefiS * float64(time.Second)),
				SEFIRecovery:      time.Duration(sefiS * float64(time.Second) / 10),
				ISLOutageMTBF:     time.Duration(outageS * float64(time.Second)),
				ISLOutageDuration: time.Duration(outageS * float64(time.Second) / 5),
			},
			RetryLimit:    retries,
			ShedThreshold: shed,
			NeedWorkers:   need,
			Window:        time.Duration(windowS * float64(time.Second)),
		}
		var reg *obs.Registry
		if obsOn {
			reg = obs.New()
			c.Obs = reg
		}
		switch {
		case planes == 1:
			c.Topology = topo.Star(sats, workers)
		case planes > 1 && planes <= 8:
			g, err := topo.Walker(planes, sats, workers, 1, 0)
			if err != nil {
				return
			}
			c.Topology = g
		}
		err := c.Validate() // must never panic, whatever the fields
		if err != nil {
			return
		}
		if c.Topology != nil && c.Topology.Cells() > 1 && need != 0 {
			t.Fatalf("NeedWorkers %d accepted on a %d-cell graph", need, c.Topology.Cells())
		}
		if c.Window > 0 {
			n := c.Duration / c.Window
			if c.Duration%c.Window != 0 {
				n++
			}
			if n > window.MaxWindows {
				t.Fatalf("window %v accepted: it cuts %v into %d windows, above %d", c.Window, c.Duration, n, window.MaxWindows)
			}
		}
		// Only simulate configs cheap enough for a fuzz iteration.
		if sats > 4 || fpm > 30 || workers > 4 || batch > 64 || planes > 2 ||
			c.Duration > 10*time.Minute ||
			(c.Window > 0 && c.Window < time.Second) ||
			(c.Faults.SEFIMTBE > 0 && c.Faults.SEFIMTBE < time.Second) ||
			(c.Faults.ISLOutageMTBF > 0 && c.Faults.ISLOutageMTBF < time.Second) {
			return
		}
		s, runErr := Run(c)
		if runErr != nil {
			t.Fatalf("validated config must simulate: %v", runErr)
		}
		if got := s.FramesProcessed + s.Backlog + s.FramesShed + s.FramesLost; got != s.FramesGenerated {
			t.Fatalf("conservation: processed+backlog+shed+lost = %d ≠ %d generated", got, s.FramesGenerated)
		}
		if s.Availability < 0 || s.Availability > 1 || s.DegradedFraction < 0 || s.DegradedFraction > 1 {
			t.Fatalf("availability %v / degraded %v out of [0,1]", s.Availability, s.DegradedFraction)
		}
		if reg == nil {
			return
		}
		period := sampleEvery.Seconds()
		if c.Window > 0 {
			period = c.Window.Seconds()
		}
		for _, sv := range reg.Snapshot().Series {
			k := 0
			for ; float64(k+1)*period <= c.Duration.Seconds(); k++ {
				if k >= len(sv.Points) {
					t.Fatalf("series %s has %d points, want one per whole %v s window of %v", sv.Name, len(sv.Points), period, c.Duration)
				}
				if want := float64(k+1) * period; sv.Points[k].T != want {
					t.Fatalf("series %s point %d at %v s, want the window end %v s", sv.Name, k, sv.Points[k].T, want)
				}
			}
			if len(sv.Points) != k {
				t.Fatalf("series %s has %d points, want %d whole %v s windows of %v", sv.Name, len(sv.Points), k, period, c.Duration)
			}
		}
	})
}
