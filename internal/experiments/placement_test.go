package experiments

import (
	"testing"

	"sudc/internal/workload"
)

// TestPlacementSweepFrontier pins E11's two headline findings: the
// traffic-intensity crossover where space goodput-per-TCO-dollar
// overtakes the bent pipe, and the Oracle floor lower-bounding every
// realized policy at every sweep point.
func TestPlacementSweepFrontier(t *testing.T) {
	points, err := PlacementSweep(workload.Suite[0], []float64{0.5, 6}, []float64{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for _, p := range points {
		// At 0.5 frames/min the SµDC TCO is amortized over too few
		// frames and the bent pipe wins; at 6 frames/min demand
		// amortization flips the frontier — at either downlink capacity.
		wantSpace := p.FramesPerMinute >= 6
		if p.SpaceWins != wantSpace {
			t.Errorf("fpm=%v dl=%v: SpaceWins=%v, want %v (space %.3g fr/$, cloud %.3g fr/$)",
				p.FramesPerMinute, p.DownlinkGbps, p.SpaceWins, wantSpace,
				p.SpacePerDollar, p.CloudPerDollar)
		}
		// The analytic floor lower-bounds every realized mean cost.
		for name, c := range map[string]float64{
			"static-space": p.SpaceCost,
			"static-cloud": p.CloudCost,
			"greedy":       p.GreedyPolCost,
			"queue":        p.QueuePolCost,
		} {
			if c < p.OracleCost*(1-1e-9) {
				t.Errorf("fpm=%v dl=%v: %s mean cost %.6g beats the oracle floor %.6g",
					p.FramesPerMinute, p.DownlinkGbps, name, c, p.OracleCost)
			}
		}
		if p.SpacePerDollar <= 0 || p.CloudPerDollar <= 0 {
			t.Errorf("fpm=%v dl=%v: non-positive goodput per dollar", p.FramesPerMinute, p.DownlinkGbps)
		}
	}
}

// TestPlacementSweepMMcAnchor cross-checks the DES against the
// Erlang-C wait at low load: with 0.5 frames/min into a 10 Gbps
// downlink, both the analytic M/M/c wait and the measured ground-edge
// wait above the deterministic floor are negligible.
func TestPlacementSweepMMcAnchor(t *testing.T) {
	points, err := PlacementSweep(workload.Suite[0], []float64{0.5}, []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	if p.EdgeWaitMMc > 1e-6 {
		t.Errorf("analytic M/M/c wait %.3g s not negligible at low load", p.EdgeWaitMMc)
	}
	if p.EdgeWaitDES < 0 || p.EdgeWaitDES > 0.1 {
		t.Errorf("measured edge wait %.3g s off the analytic ≈0 anchor", p.EdgeWaitDES)
	}
}

// TestExtPlacementTable smoke-checks the rendered E11 grid.
func TestExtPlacementTable(t *testing.T) {
	if _, err := ByID("Extension E11"); err != nil {
		t.Fatal(err)
	}
	tbl := run(t, ExtPlacement)
	if len(tbl.Rows) != 8 {
		t.Fatalf("E11 has %d rows, want 8", len(tbl.Rows))
	}
	winners := map[string]int{}
	for _, r := range tbl.Rows {
		winners[r[4]]++
	}
	if winners["space"] == 0 || winners["bent pipe"] == 0 {
		t.Errorf("E11 grid shows no crossover: %v", winners)
	}
}
