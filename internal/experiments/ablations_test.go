package experiments

import (
	"testing"
	"time"
)

func TestAllAblationsRun(t *testing.T) {
	abl := Ablations()
	if len(abl) != 7 {
		t.Fatalf("have %d ablations, want 7", len(abl))
	}
	for _, e := range abl {
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
				t.Errorf("%s row %d: %d cells for %d columns", e.ID, ri, len(r), len(tbl.Header))
			}
		}
	}
}

func TestAblationThermalTrade(t *testing.T) {
	tbl := run(t, AblationThermal)
	// Rows alternate active/passive per power level.
	for i := 0; i+1 < len(tbl.Rows); i += 2 {
		active, passive := tbl.Rows[i], tbl.Rows[i+1]
		if parseCell(t, passive[2]) <= parseCell(t, active[2]) {
			t.Errorf("%s: passive radiator must be larger", active[0])
		}
		if parseCell(t, passive[3]) != 0 {
			t.Errorf("%s: passive pump power must be 0", active[0])
		}
		if parseCell(t, passive[4]) >= parseCell(t, active[4]) {
			t.Errorf("%s: passive EOL power must be lower (no pump)", active[0])
		}
	}
}

func TestAblationPowerSourceRTGLoses(t *testing.T) {
	tbl := run(t, AblationPowerSource)
	for i := 0; i+1 < len(tbl.Rows); i += 2 {
		sol, rtg := tbl.Rows[i], tbl.Rows[i+1]
		if parseCell(t, rtg[4]) <= parseCell(t, sol[4]) {
			t.Errorf("%s: RTG must cost more than solar at LEO", sol[0])
		}
		if parseCell(t, rtg[3]) != 0 {
			t.Error("RTG flies no battery")
		}
	}
}

func TestAblationThrusterIonSavesPropellant(t *testing.T) {
	tbl := run(t, AblationThruster)
	if len(tbl.Rows) != 3 {
		t.Fatal("want 3 thrusters")
	}
	monoProp := parseCell(t, tbl.Rows[0][2])
	ionProp := parseCell(t, tbl.Rows[2][2])
	if ionProp >= monoProp/5 {
		t.Errorf("ion propellant (%v kg) must be far below monoprop (%v kg)", ionProp, monoProp)
	}
}

func TestAblationSolarCellSiliconHeavier(t *testing.T) {
	tbl := run(t, AblationSolarCell)
	gaas, si := tbl.Rows[0], tbl.Rows[1]
	if parseCell(t, si[1]) <= parseCell(t, gaas[1]) {
		t.Error("silicon array must be larger")
	}
	if parseCell(t, si[4]) <= parseCell(t, gaas[4]) {
		t.Error("silicon design must cost more (mass cascade)")
	}
}

func TestAblationISLLawDiverges(t *testing.T) {
	tbl := run(t, AblationISLLaw)
	// At 200 Gbit/s the linear law must be far costlier than saturating.
	last := tbl.Rows[len(tbl.Rows)-1]
	if parseCell(t, last[2]) <= parseCell(t, last[1]) {
		t.Error("linear 500 W must exceed saturating at high rates")
	}
	if parseCell(t, last[4]) <= 1.5*parseCell(t, last[3]) {
		t.Error("linear 4 kW must far exceed saturating at 200 Gbit/s")
	}
}

func TestAblationDecodePowerShrinksSavings(t *testing.T) {
	tbl := run(t, AblationCompressionDecode)
	for _, r := range tbl.Rows {
		upper := parseCell(t, r[1])
		refined := parseCell(t, r[2])
		if refined >= upper {
			t.Errorf("%s: decode power must shrink the saving (%v vs %v)", r[0], refined, upper)
		}
		if refined <= 0 {
			t.Errorf("%s: compression must still pay off net of decode power", r[0])
		}
	}
}

func TestAblationBatchSizeLatencyGrows(t *testing.T) {
	tbl := run(t, AblationBatchSize)
	if len(tbl.Rows) != 5 {
		t.Fatal("want 5 batch sizes")
	}
	// Latency at batch 32 exceeds latency at batch 1.
	first := tbl.Rows[0][1]
	last := tbl.Rows[len(tbl.Rows)-1][1]
	d1, err1 := parseDuration(first)
	d2, err2 := parseDuration(last)
	if err1 != nil || err2 != nil {
		t.Fatalf("bad durations %q %q", first, last)
	}
	if d2 <= d1 {
		t.Errorf("batch 32 latency (%v) must exceed batch 1 (%v)", d2, d1)
	}
}

func parseDuration(s string) (time.Duration, error) { return time.ParseDuration(s) }
