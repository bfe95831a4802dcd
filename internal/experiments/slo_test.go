package experiments

import (
	"reflect"
	"testing"
)

// TestSLOSweepDeterministic pins E12's reproducibility: the sweep is a
// pure function of the grid and the forked seeds, so two runs agree
// exactly — the window stream underneath is byte-identical for any
// shard or worker count and the SLO engine is pure.
func TestSLOSweepDeterministic(t *testing.T) {
	a, err := SLOSweep([]float64{0, 1}, []float64{0.38}, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SLOSweep([]float64{0, 1}, []float64{0.38}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("E12 sweep is not reproducible:\n%+v\nvs\n%+v", a, b)
	}
}

// TestSLOAlertsConcentrateAtEclipseExit pins E12's headline findings on
// the full grid: degradation costs attainment, and the alerts it adds
// fire where the physics says they must — in the eclipse-exit throttle
// windows — with every degraded alert carrying a named cause.
func TestSLOAlertsConcentrateAtEclipseExit(t *testing.T) {
	pts, err := SLOSweep([]float64{0, 0.5, 1}, []float64{0.25, 0.38, 0.50}, 20)
	if err != nil {
		t.Fatal(err)
	}
	byCell := make(map[[2]float64]SLOPoint, len(pts))
	for _, p := range pts {
		byCell[[2]float64{p.Severity, p.EclipseFraction}] = p
	}
	for _, ef := range []float64{0.25, 0.38, 0.50} {
		base, full := byCell[[2]float64{0, ef}], byCell[[2]float64{1, ef}]
		if base.EclipseExitShare != 0 {
			t.Errorf("ef %.2f: severity-0 run has eclipse-exit alerts (share %.2f) with no schedule compiled",
				ef, base.EclipseExitShare)
		}
		if full.Attainment >= base.Attainment {
			t.Errorf("ef %.2f: full-severity attainment %.3f not below severity-0 %.3f",
				ef, full.Attainment, base.Attainment)
		}
		if full.EclipseExitShare <= base.EclipseExitShare {
			t.Errorf("ef %.2f: alerts do not concentrate at eclipse exit (share %.2f)",
				ef, full.EclipseExitShare)
		}
		if full.Alerts > 0 && full.Attributed != 1 {
			t.Errorf("ef %.2f: only %.0f%% of degraded alerts carry a cause, want all",
				ef, full.Attributed*100)
		}
	}
	// A longer eclipse leaves more post-eclipse catch-up inside the
	// throttle clamp, so the full-severity share rises with eclipse
	// fraction across the grid's extremes.
	lo, hi := byCell[[2]float64{1, 0.25}], byCell[[2]float64{1, 0.50}]
	if hi.EclipseExitShare <= lo.EclipseExitShare {
		t.Errorf("eclipse-exit share does not rise with eclipse fraction: %.2f (ef 0.25) vs %.2f (ef 0.50)",
			lo.EclipseExitShare, hi.EclipseExitShare)
	}
}

// TestExtSLOTable smoke-checks the rendered E12 grid.
func TestExtSLOTable(t *testing.T) {
	e, err := ByID("Extension E12")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 {
		t.Fatalf("E12 has %d rows, want 9", len(tbl.Rows))
	}
	for ri, r := range tbl.Rows {
		if len(r) != len(tbl.Header) {
			t.Errorf("row %d: %d columns, want %d", ri, len(r), len(tbl.Header))
		}
	}
}
