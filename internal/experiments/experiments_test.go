package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// parseCell parses a formatted numeric cell ("1.23", "45.6%", "12.3×").
func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "×")
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func run(t *testing.T, f func() (Table, error)) Table {
	t.Helper()
	tbl, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		tbl, err := e.Run()
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", e.ID)
		}
		if len(tbl.Header) == 0 {
			t.Errorf("%s: no header", e.ID)
		}
		for ri, r := range tbl.Rows {
			if len(r) != len(tbl.Header) {
				t.Errorf("%s row %d: %d cells for %d columns", e.ID, ri, len(r), len(tbl.Header))
			}
		}
		if out := tbl.String(); !strings.Contains(out, tbl.ID) {
			t.Errorf("%s: rendering must include the exhibit ID", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	// One lookup reaches the paper exhibits, the ablations and the
	// extensions, ignoring case.
	for query, want := range map[string]string{
		"figure 5":      "Figure 5",
		"Ablation A1":   "Ablation A1",
		"EXTENSION E12": "Extension E12",
	} {
		t.Run(query, func(t *testing.T) {
			e, err := ByID(query)
			if err != nil {
				t.Fatal(err)
			}
			if e.ID != want {
				t.Errorf("ByID(%q) returned %q, want %q", query, e.ID, want)
			}
		})
	}
	for _, query := range []string{"Figure 99", "Ablation A99", "Extension E99"} {
		t.Run(query, func(t *testing.T) {
			_, err := ByID(query)
			if want := fmt.Sprintf("unknown exhibit %q", query); err == nil || err.Error() != want {
				t.Errorf("ByID(%q) error = %v, want %s", query, err, want)
			}
		})
	}
}

func TestAllCountMatchesDesignDoc(t *testing.T) {
	// DESIGN.md's per-experiment index: 3 tables + 22 data figures.
	if got := len(All()); got != 25 {
		t.Errorf("have %d experiments, want 25", got)
	}
}

func TestFig4LastRowLargest(t *testing.T) {
	tbl := run(t, Fig4)
	first := parseCell(t, tbl.Rows[0][1])
	if first != 1.00 {
		t.Errorf("baseline cell = %v, want 1.00", first)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	for col := 1; col <= 3; col++ {
		if parseCell(t, last[col]) <= parseCell(t, tbl.Rows[0][col]) {
			t.Errorf("column %d must grow with lifetime", col)
		}
	}
}

func TestFig5Headline(t *testing.T) {
	tbl := run(t, Fig5)
	// Row order: 0.5 … 10 kW; total column index 1.
	first := parseCell(t, tbl.Rows[0][1])
	last := parseCell(t, tbl.Rows[len(tbl.Rows)-1][1])
	ratio := last / first
	if ratio <= 3 || ratio >= 4 {
		t.Errorf("Fig5 total ratio = %.2f, want (3,4)", ratio)
	}
	// Compute hardware share stays below 1% in every row.
	shareCol := len(tbl.Header) - 1
	for _, r := range tbl.Rows {
		if parseCell(t, r[shareCol]) >= 1.0 {
			t.Errorf("compute share %s ≥ 1%%", r[shareCol])
		}
	}
}

func TestFig7Anchors(t *testing.T) {
	tbl := run(t, Fig7)
	// Find the 25 Gbit/s row: 500 W increase must be below 30%.
	for _, r := range tbl.Rows {
		if r[0] == "25 Gbit/s" {
			if v := parseCell(t, r[1]); v >= 30 || v < 10 {
				t.Errorf("500 W at 25 Gbit/s = %v%%, want [10,30)", v)
			}
		}
		if r[0] == "200 Gbit/s" {
			if v := parseCell(t, r[2]); v >= 26 {
				t.Errorf("4 kW at 200 Gbit/s = %v%%, want <26", v)
			}
		}
	}
}

func TestFig9ArchitectureColumnsNearlyEqual(t *testing.T) {
	tbl := run(t, Fig9)
	for _, r := range tbl.Rows {
		a := parseCell(t, r[1])
		h := parseCell(t, r[3])
		if (h-a)/a > 0.05 {
			t.Errorf("%s: architecture TCO spread %.3f, want <5%%", r[0], (h-a)/a)
		}
		// FLOPs per TCO dollar is always won by the best FLOPs/W part.
		if r[4] != "H100" {
			t.Errorf("%s: best perf/TCO$ = %s, want H100", r[0], r[4])
		}
	}
}

func TestFig10SavingsOrderingAndAsymptote(t *testing.T) {
	tbl := run(t, Fig10)
	first := tbl.Rows[0]
	last := tbl.Rows[len(tbl.Rows)-1]
	// At every efficiency, stronger compression costs less.
	for _, r := range tbl.Rows {
		plain, ccsds, jp2, neural := parseCell(t, r[1]), parseCell(t, r[2]), parseCell(t, r[3]), parseCell(t, r[4])
		if !(neural < jp2 && jp2 < ccsds && ccsds < plain) {
			t.Errorf("row %s: compression ordering broken", r[0])
		}
	}
	// Asymptotic neural saving exceeds today's (Fig. 10's key trend).
	if parseCell(t, last[5]) <= parseCell(t, first[5]) {
		t.Error("asymptotic compression savings must exceed today's")
	}
}

func TestFig11PowerDominatesInSpaceOnly(t *testing.T) {
	tbl := run(t, Fig11)
	if len(tbl.Rows) != 5 {
		t.Fatalf("want 5 models, have %d", len(tbl.Rows))
	}
	for i, r := range tbl.Rows {
		servers := parseCell(t, r[1])
		power := parseCell(t, r[3])
		if i < 2 { // satellite models
			if power <= servers {
				t.Errorf("%s: power (%v%%) must dominate servers (%v%%) in space", r[0], power, servers)
			}
			if servers >= 5 {
				t.Errorf("%s: satellite server share = %v%%, want tiny", r[0], servers)
			}
		} else { // terrestrial models
			if servers <= power {
				t.Errorf("%s: servers must dominate power on Earth", r[0])
			}
		}
	}
}

func TestFig12MatchesPaperAnchor(t *testing.T) {
	tbl := run(t, Fig12)
	// At 45 °C the 4 kW column reads ≈4 m².
	for _, r := range tbl.Rows {
		if r[0] == "45 °C" {
			v := parseCell(t, strings.TrimSuffix(r[2], " m²"))
			if v < 3.8 || v > 4.3 {
				t.Errorf("4 kW at 45°C = %v m², want ≈4", v)
			}
		}
	}
}

func TestFig15Shape(t *testing.T) {
	tbl := run(t, Fig15)
	last := tbl.Rows[len(tbl.Rows)-1]
	inSpace := parseCell(t, last[1])
	def := parseCell(t, last[2])
	lpo := parseCell(t, last[4])
	if inSpace >= lpo {
		t.Errorf("in-space asymptote (%.2f) must undercut every on-Earth curve (%.2f)", inSpace, lpo)
	}
	if def < 0.90 || def > 0.96 {
		t.Errorf("On-Earth Default asymptote = %.2f, want ≈0.93", def)
	}
	if inSpace > 0.55 {
		t.Errorf("in-space asymptote = %.2f, want large TCO reduction", inSpace)
	}
}

func TestFig16TerrestrialRises(t *testing.T) {
	tbl := run(t, Fig16)
	// With log price scaling, terrestrial TCO at 200× exceeds 2.
	for _, r := range tbl.Rows {
		if r[0] == "200×" {
			if v := parseCell(t, r[2]); v <= 2.0 {
				t.Errorf("On-Earth Default at 200× = %.2f, want >2", v)
			}
			// In space, still below 1 (decreasing).
			if v := parseCell(t, r[1]); v >= 1.0 {
				t.Errorf("in-space at 200× = %.2f, want <1", v)
			}
		}
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if v := parseCell(t, last[1]); v >= 1 {
		t.Errorf("in-space TCO still decreasing at 1000×, got %.2f", v)
	}
}

func TestFig17GeomeanRow(t *testing.T) {
	tbl := run(t, Fig17)
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "geomean" {
		t.Fatal("last row must be the geomean")
	}
	global := parseCell(t, last[1])
	perLayer := parseCell(t, last[3])
	if global < 45 || global > 72 {
		t.Errorf("global gain = %v×, want ≈57.8", global)
	}
	if perLayer <= global {
		t.Error("per-layer must beat global")
	}
}

func TestFig19HalvesPowerAtHalfFiltering(t *testing.T) {
	tbl := run(t, Fig19)
	for _, r := range tbl.Rows {
		if r[0] == "0.50" {
			if r[1] != "2 kW" {
				t.Errorf("φ=0.5 SµDC compute = %s, want 2 kW", r[1])
			}
			if v := parseCell(t, r[2]); v >= 1 {
				t.Errorf("φ=0.5 relative TCO = %v, want <1", v)
			}
		}
	}
	// Monotone decreasing TCO.
	prev := 2.0
	for _, r := range tbl.Rows {
		v := parseCell(t, r[2])
		if v > prev {
			t.Errorf("TCO must fall with filtering, row %s", r[0])
		}
		prev = v
	}
}

func TestFig21OrderingMatchesPaper(t *testing.T) {
	tbl := run(t, Fig21)
	if len(tbl.Rows) != 3 {
		t.Fatalf("want 3 architecture rows")
	}
	cloudCol := len(tbl.Header) - 1
	gpu := parseCell(t, tbl.Rows[0][cloudCol])
	global := parseCell(t, tbl.Rows[1][cloudCol])
	hetero := parseCell(t, tbl.Rows[2][cloudCol])
	if !(gpu > global && global >= hetero) {
		t.Errorf("improvement ordering: %v %v %v, want GPU > global ≥ hetero", gpu, global, hetero)
	}
	if gpu < 1.3 || gpu > 2.0 {
		t.Errorf("GPU improvement = %v×, want ≈1.74", gpu)
	}
	if hetero < 1.05 {
		t.Errorf("hetero improvement = %v×, want >1", hetero)
	}
}

func TestFig22MarginalCostFalls(t *testing.T) {
	tbl := run(t, Fig22)
	// First unit (with NRE) dwarfs later units; 100th is <50% of unit 2.
	for col := 1; col <= 3; col++ {
		u1 := parseCell(t, tbl.Rows[0][col])
		u2 := parseCell(t, tbl.Rows[1][col])
		u100 := parseCell(t, tbl.Rows[len(tbl.Rows)-1][col])
		if u1 <= u2 {
			t.Errorf("col %d: first unit must carry NRE", col)
		}
		if u100 >= 0.5*u2 {
			t.Errorf("col %d: 100th unit (%v) must be <50%% of 2nd (%v)", col, u100, u2)
		}
	}
	// Paper: "the 100th 10 kW SµDC is cheaper than the first 4 kW SµDC."
	if parseCell(t, tbl.Rows[len(tbl.Rows)-1][3]) >= parseCell(t, tbl.Rows[0][2]) {
		t.Error("100th 10 kW unit must undercut the first 4 kW unit")
	}
}

func TestFig23DistributedOptimum(t *testing.T) {
	tbl := run(t, Fig23)
	opt := tbl.Rows[len(tbl.Rows)-1]
	if opt[0] != "optimum N" {
		t.Fatal("last row must be the optimum")
	}
	n65, _ := strconv.Atoi(opt[1])
	n85, _ := strconv.Atoi(opt[5])
	// Paper: pessimistic (0.85) → monolithic; aggressive (≤0.65) → >4.
	if n85 != 1 {
		t.Errorf("b=0.85 optimum N = %d, want 1 (monolithic)", n85)
	}
	if n65 <= 4 {
		t.Errorf("b=0.65 optimum N = %d, want >4", n65)
	}
	// And >10% TCO advantage at b=0.65.
	mono := parseCell(t, tbl.Rows[0][1])
	best := parseCell(t, tbl.Rows[n65-1][1])
	if (mono-best)/mono <= 0.10 {
		t.Errorf("b=0.65 distributed saving = %.3f, want >10%%", (mono-best)/mono)
	}
}

func TestFig24Anchors(t *testing.T) {
	tbl := run(t, Fig24)
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "t @ P=1%" {
		t.Fatal("last row must be the 1% crossing")
	}
	// Paper: 0.46 / 1.43 / 1.89 for n = 10 / 20 / 30.
	checks := map[int]float64{1: 0.46, 3: 1.43, 5: 1.89}
	for col, want := range checks {
		if got := parseCell(t, last[col]); got < want-0.03 || got > want+0.03 {
			t.Errorf("1%% crossing col %d = %v, want %v", col, got, want)
		}
	}
}

func TestFig25CappedAtTen(t *testing.T) {
	tbl := run(t, Fig25)
	for _, r := range tbl.Rows {
		prev := -1.0
		for col := 1; col < len(r); col++ {
			v := parseCell(t, r[col])
			if v > 10.0001 {
				t.Errorf("expected working servers capped at 10, got %v", v)
			}
			// More spares → more expected capacity at the same time.
			if v < prev-1e-9 {
				t.Errorf("row %s: capacity must not fall with overprovisioning", r[0])
			}
			prev = v
		}
	}
}

func TestFig26AllRowsHaveMargin(t *testing.T) {
	tbl := run(t, Fig26)
	for _, r := range tbl.Rows {
		margin := parseCell(t, r[4])
		if margin < 1 {
			t.Errorf("%s: TID margin %v×, all parts should exceed a 5-yr LEO dose", r[0], margin)
		}
	}
}

func TestFig27AccuracyFallsWithFlux(t *testing.T) {
	tbl := run(t, Fig27)
	for _, r := range tbl.Rows {
		prev := 1.0
		for col := 1; col < len(r); col++ {
			v := parseCell(t, r[col])
			if v > prev {
				t.Errorf("%s: accuracy must fall with flux", r[0])
			}
			prev = v
		}
	}
}

func TestFig28SoftwareBeatsHardwareRedundancy(t *testing.T) {
	tbl := run(t, Fig28)
	for _, r := range tbl.Rows {
		tmr := parseCell(t, r[1])
		dmr := parseCell(t, r[2])
		sw := parseCell(t, r[3])
		if !(tmr > dmr && dmr > sw) {
			t.Errorf("%s: redundancy TCO must order TMR > DMR > software: %v %v %v", r[0], tmr, dmr, sw)
		}
		if sw >= 1.2 {
			t.Errorf("%s: software hardening TCO = %v×, want small (<1.2×)", r[0], sw)
		}
		if tmr <= 1.3 {
			t.Errorf("%s: TMR TCO = %v×, should be substantially costlier", r[0], tmr)
		}
	}
}

func TestTableIIIMatchesPaper(t *testing.T) {
	tbl := run(t, TableIII)
	if len(tbl.Rows) != 10 {
		t.Fatalf("Table III must have 10 apps")
	}
	for _, r := range tbl.Rows {
		want := "1"
		if r[0] == "Panoptic Segmentation" {
			want = "4"
		}
		if r[5] != want {
			t.Errorf("%s: # SµDC = %s, want %s", r[0], r[5], want)
		}
	}
}

func TestTableIIListsEightDevices(t *testing.T) {
	tbl := run(t, TableII)
	if len(tbl.Rows) != 8 {
		t.Errorf("Table II must list 8 devices, has %d", len(tbl.Rows))
	}
}

func TestFig8LightestAppUnder25G(t *testing.T) {
	tbl := run(t, Fig8)
	var maxAt500 float64
	for _, r := range tbl.Rows {
		if v := parseCell(t, r[1]); v > maxAt500 {
			maxAt500 = v
		}
	}
	if maxAt500 > 25 {
		t.Errorf("max 500 W saturation rate = %.1f Gbit/s, want ≤25", maxAt500)
	}
}
