package experiments

import (
	"fmt"
	"strconv"
	"testing"

	"sudc/internal/netsim"
	"sudc/internal/obs/latency"
	"sudc/internal/obs/trace"
	"sudc/internal/workload"
)

func TestAllExtensionsRun(t *testing.T) {
	ext := Extensions()
	if len(ext) != 12 {
		t.Fatalf("have %d extensions, want 12", len(ext))
	}
	for _, e := range ext {
		tbl, err := e.Run()
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", e.ID)
		}
		for ri, r := range tbl.Rows {
			if len(r) != len(tbl.Header) {
				t.Errorf("%s row %d: column mismatch", e.ID, ri)
			}
		}
	}
}

func TestExtFleetPlanAcceleratorsShrinkFleet(t *testing.T) {
	tbl := run(t, ExtFleetPlan)
	if len(tbl.Rows) != 2 {
		t.Fatal("want GPU and accelerator rows")
	}
	gpuN, _ := strconv.Atoi(tbl.Rows[0][1])
	accN, _ := strconv.Atoi(tbl.Rows[1][1])
	if accN >= gpuN {
		t.Errorf("accelerator fleet (%d) must be smaller than GPU fleet (%d)", accN, gpuN)
	}
	if parseCell(t, tbl.Rows[1][5]) >= parseCell(t, tbl.Rows[0][5]) {
		t.Error("accelerator fleet must cost less")
	}
}

func TestExtMaintenanceSparesTrade(t *testing.T) {
	tbl := run(t, ExtMaintenance)
	if len(tbl.Rows) != 3 {
		t.Fatal("want 3 sparing policies")
	}
	// Availability rises with spares; so does program cost.
	for i := 1; i < len(tbl.Rows); i++ {
		if parseCell(t, tbl.Rows[i][1]) < parseCell(t, tbl.Rows[i-1][1]) {
			t.Error("availability must not fall with more spares")
		}
		if parseCell(t, tbl.Rows[i][4]) <= parseCell(t, tbl.Rows[i-1][4]) {
			t.Error("program cost must rise with more spares")
		}
	}
}

func TestExtGEOFindings(t *testing.T) {
	tbl := run(t, ExtGEO)
	get := func(metric string) (string, string) {
		t.Helper()
		for _, r := range tbl.Rows {
			if r[0] == metric {
				return r[1], r[2]
			}
		}
		t.Fatalf("metric %q missing", metric)
		return "", ""
	}
	// GEO: ~8× the dose, COTS margin collapses below 1×.
	leoDose, geoDose := get("5-yr TID @200 mils (krad)")
	if parseCell(t, geoDose) < 5*parseCell(t, leoDose) {
		t.Error("GEO dose must be several times LEO")
	}
	_, geoMargin := get("COTS GPU TID margin")
	if parseCell(t, geoMargin) >= 1 {
		t.Errorf("COTS GPU must NOT clear the GEO dose (margin %s)", geoMargin)
	}
	// GEO eclipses are rarer but *longer* (up to ~70 min vs ~36 min in
	// LEO), so the battery grows — while the array shrinks because the
	// orbit is almost always in sun.
	leoBatt, geoBatt := get("battery (kg)")
	if parseCell(t, geoBatt) <= parseCell(t, leoBatt) {
		t.Error("GEO battery must be heavier (longer eclipse duration)")
	}
	leoBOL, geoBOL := get("BOL power (kW)")
	if parseCell(t, geoBOL) >= parseCell(t, leoBOL) {
		t.Error("GEO array must install less BOL power (sun-rich orbit)")
	}
	// The relay-class ISL draws more power.
	leoISL, geoISL := get("ISL power (W)")
	if parseCell(t, geoISL) <= parseCell(t, leoISL) {
		t.Error("GEO relay ISL must draw more power")
	}
}

func TestExtBentPipeShowsTheMotivation(t *testing.T) {
	tbl := run(t, ExtBentPipe)
	if len(tbl.Rows) != 4 {
		t.Fatal("want 4 application rows")
	}
	for _, r := range tbl.Rows {
		// The 45 Mpix-class apps suffer a large deficit; latency is tens
		// of minutes; the ISL share stays modest.
		if r[0] == "Flood Detection" {
			if parseCell(t, r[3]) < 50 {
				t.Errorf("flood deficit = %s, want severe", r[3])
			}
		}
		if parseCell(t, r[5]) > 100 {
			t.Errorf("%s: ISL share %s exceeds one crosslink head", r[0], r[5])
		}
	}
}

func TestExtTradeStudyFront(t *testing.T) {
	tbl := run(t, ExtTradeStudy)
	// One front point per compute level (the cheapest lifetime wins each).
	if len(tbl.Rows) != 7 {
		t.Errorf("front has %d rows, want 7", len(tbl.Rows))
	}
	// Front is monotone: more compute costs more.
	for i := 1; i < len(tbl.Rows); i++ {
		if parseCell(t, tbl.Rows[i][2]) <= parseCell(t, tbl.Rows[i-1][2]) &&
			parseCell(t, tbl.Rows[i][0]) > parseCell(t, tbl.Rows[i-1][0]) {
			t.Error("front must trade TCO for compute monotonically")
		}
	}
}

func TestExtPipelineTimingSane(t *testing.T) {
	tbl := run(t, ExtPipelineTiming)
	if len(tbl.Rows) != 9 {
		t.Fatalf("want 9 networks, got %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if parseCell(t, r[2]) <= 0 {
			t.Errorf("%s: non-positive throughput", r[0])
		}
		if parseCell(t, r[3]) <= 0 {
			t.Errorf("%s: non-positive latency", r[0])
		}
		if r[4] == "" {
			t.Errorf("%s: missing bottleneck", r[0])
		}
	}
}

func TestExtShardedTopologyScaling(t *testing.T) {
	tbl := run(t, ExtShardedTopology)
	if len(tbl.Rows) != 5 {
		t.Fatalf("want 5 topology points, got %d", len(tbl.Rows))
	}
	// The single-plane star relays nothing; the sparsest placement
	// (SµDC every 4th plane) averages a full boundary crossing per frame.
	if hops := parseCell(t, tbl.Rows[0][3]); hops != 0 {
		t.Errorf("single plane has %v cross-hops/frame, want 0", hops)
	}
	if hops := parseCell(t, tbl.Rows[len(tbl.Rows)-1][3]); hops < 0.9 {
		t.Errorf("sparse placement has %v cross-hops/frame, want ≈ 1", hops)
	}
	for _, r := range tbl.Rows {
		if a := parseCell(t, r[5]); a <= 0 || a > 100 {
			t.Errorf("planes=%s: availability %s out of range", r[0], r[5])
		}
	}
}

func TestOverprovisionSweepMatchesAnalytic(t *testing.T) {
	pts, err := OverprovisionSweep(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("want 5 spare counts, got %d", len(pts))
	}
	for i, p := range pts {
		if p.Spares != i || p.Nodes != p.Need+i {
			t.Errorf("point %d: spares=%d nodes=%d need=%d", i, p.Spares, p.Nodes, p.Need)
		}
		delta := p.Measured - p.Analytic
		if delta < 0 {
			delta = -delta
		}
		if delta > 0.02 {
			t.Errorf("spares=%d: DES availability %.4f vs analytic %.4f — |Δ| %.4f > 2%%",
				p.Spares, p.Measured, p.Analytic, delta)
		}
		if i > 0 {
			if p.Measured <= pts[i-1].Measured {
				t.Errorf("spares=%d: availability must grow with spares", p.Spares)
			}
			if p.SpareTCOShare <= pts[i-1].SpareTCOShare {
				t.Errorf("spares=%d: spare TCO share must grow with spares", p.Spares)
			}
		}
	}
	// The paper's near-free-spares claim: even 4 spares (2× compute) add
	// under 1% to the SµDC's total cost of ownership.
	if last := pts[len(pts)-1]; last.SpareTCOShare >= 0.01 {
		t.Errorf("4 spares add %.2f%% of TCO, want < 1%%", last.SpareTCOShare*100)
	}
}

// overprovisionTraceCheck replays one spare-count setting of the E7
// scenario with the frame-lineage flight recorder attached and
// recomputes each replica's availability from the trace's fault events
// alone (latency.AvailabilityFromTrace). It returns the replica-mean
// availability both ways — DES-measured and trace-derived.
func overprovisionTraceCheck(spares, replicas int) (des, fromTrace float64, err error) {
	c := overprovisionConfig(workload.Suite[0])
	c.Workers = c.NeedWorkers + spares
	rec := trace.New(0)
	c.Trace = rec
	all, err := netsim.RunReplicas(c, replicas, 0)
	if err != nil {
		return 0, 0, err
	}
	horizon := c.Duration.Seconds()
	for r, s := range all {
		des += s.Availability
		events := rec.Child(fmt.Sprintf("r%03d", r)).Events()
		fromTrace += latency.AvailabilityFromTrace(events, c.Workers, c.NeedWorkers, horizon)
	}
	n := float64(len(all))
	return des / n, fromTrace / n, nil
}

func TestOverprovisionTraceCheckAgrees(t *testing.T) {
	// The E7 availability numbers must be reproducible from a saved
	// flight recording alone: recomputing availability from the trace's
	// fault events has to agree with the DES to float64 rounding, which
	// is what makes saved traces trustworthy evidence.
	for _, spares := range []int{0, 2} {
		des, fromTrace, err := overprovisionTraceCheck(spares, 25)
		if err != nil {
			t.Fatal(err)
		}
		if des <= 0 || des > 1 {
			t.Fatalf("spares=%d: DES availability %.6f out of range", spares, des)
		}
		delta := des - fromTrace
		if delta < 0 {
			delta = -delta
		}
		if delta > 1e-9 {
			t.Errorf("spares=%d: DES availability %.12f vs trace-derived %.12f — |Δ| %.3g",
				spares, des, fromTrace, delta)
		}
	}
}
