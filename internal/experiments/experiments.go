// Package experiments regenerates every data table and figure in the
// paper's evaluation. Each exported function reproduces one exhibit and
// returns a Table — the same rows/series the paper plots — so the cmd
// tools, the benchmark harness, and EXPERIMENTS.md all print from one
// source of truth.
//
// The per-experiment index lives in DESIGN.md; paper-vs-measured values
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"

	"sudc/internal/obs"
	"sudc/internal/par"
)

// Table is a rendered experiment: a titled grid of string cells.
type Table struct {
	// ID is the paper exhibit ("Table III", "Figure 5", …).
	ID string
	// Title is a one-line description.
	Title string
	// Header labels the columns.
	Header []string
	// Rows are the data rows.
	Rows [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len([]rune(h))
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len([]rune(c))
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// f2, f1 and f0 format floats at fixed precision.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// pct2 is pct at two decimals, for small differences.
func pct2(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// Experiment is one runnable exhibit, for enumeration by cmd/experiments
// and the benchmark harness.
type Experiment struct {
	ID   string
	Name string
	Run  func() (Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"Table I", "model input parameter derivations", TableI},
		{"Table II", "hardware catalog", TableII},
		{"Table III", "app performance on RTX 3090 + # SµDC", TableIII},
		{"Figure 3", "4 kW subsystem cost breakdown, two cost models", Fig3},
		{"Figure 4", "TCO vs lifetime", Fig4},
		{"Figure 5", "TCO vs compute power", Fig5},
		{"Figure 6", "mass vs compute power", Fig6},
		{"Figure 7", "TCO vs ISL data rate", Fig7},
		{"Figure 8", "ISL rates to saturate compute", Fig8},
		{"Figure 9", "TCO vs processor architecture", Fig9},
		{"Figure 10", "TCO vs energy efficiency under compression", Fig10},
		{"Figure 11", "normalized TCO, satellite vs terrestrial models", Fig11},
		{"Figure 12", "radiator area vs temperature", Fig12},
		{"Figure 15", "TCO vs efficiency, in-space vs on-Earth", Fig15},
		{"Figure 16", "same with logarithmic hardware price scaling", Fig16},
		{"Figure 17", "accelerator energy-efficiency gains", Fig17},
		{"Figure 19", "TCO vs edge filtering rate", Fig19},
		{"Figure 21", "TCO vs efficiency × filtering", Fig21},
		{"Figure 22", "Wright's-law marginal cost", Fig22},
		{"Figure 23", "distributed vs monolithic at 32 kW", Fig23},
		{"Figure 24", "availability vs time under overprovisioning", Fig24},
		{"Figure 25", "expected working servers vs time", Fig25},
		{"Figure 26", "TID tolerance vs technology node", Fig26},
		{"Figure 27", "soft-error impact on ImageNet ANNs", Fig27},
		{"Figure 28", "TCO of redundancy schemes", Fig28},
	}
}

// RunAll executes the experiments concurrently over the shared parallel
// engine and returns their tables in input order, so rendered output is
// byte-identical to a serial run for any worker count. workers ≤ 0 uses
// the engine default (GOMAXPROCS). The first failing exhibit (lowest
// index among those observed) aborts the run.
func RunAll(exps []Experiment, workers int) ([]Table, error) {
	return RunAllObserved(exps, workers, nil)
}

// RunAllObserved is RunAll with per-exhibit span timing recorded into
// reg (nil disables recording; spans are aggregated under
// "experiments/<ID>" plus a total exhibit counter).
func RunAllObserved(exps []Experiment, workers int, reg *obs.Registry) ([]Table, error) {
	tables, err := par.MapErr(exps, func(e Experiment) (Table, error) {
		sp := reg.StartSpan("experiments/" + e.ID)
		t, err := e.Run()
		sp.End()
		if err != nil {
			return Table{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		return t, nil
	}, par.Workers(workers))
	if err == nil {
		reg.Counter("experiments/exhibits").Add(int64(len(exps)))
	}
	return tables, err
}

// ByID finds an exhibit — paper, ablation or extension — by its ID,
// ignoring case.
func ByID(id string) (Experiment, error) {
	for _, list := range [][]Experiment{All(), Ablations(), Extensions()} {
		for _, e := range list {
			if strings.EqualFold(e.ID, id) {
				return e, nil
			}
		}
	}
	return Experiment{}, fmt.Errorf("unknown exhibit %q", id)
}
