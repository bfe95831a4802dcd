// Command benchdiff turns benchmark drift into a machine-checked gate.
// It parses `go test -bench` output and compares it either against a
// second bench output (old vs new) or against the repository's
// benchmark ledger, BENCH_LEDGER.json, printing a per-benchmark delta
// table and exiting nonzero when any benchmark regressed beyond its
// limit.
//
// Usage:
//
//	benchdiff [-threshold pct] old.txt new.txt
//	benchdiff -baseline BENCH_LEDGER.json new.txt
//
// Bench output may contain repeated runs of a benchmark (go test
// -count=N); the median ns/op per benchmark is compared, so the gate is
// robust to a single noisy run. CI runs every gated benchmark through
// this tool instead of eyeballing free-text bench logs: every PR's
// overhead budget is enforced, not hand-recorded.
//
// The ledger is a JSON array with one row per gated benchmark. A row
// is the only place a gate is defined: its recorded median ns_per_op
// and its own threshold_pct, so one ledger holds tight gates on the
// always-on paths next to loose ones on GC-bound opt-in paths. A row
// may also record bytes_per_op and allocs_per_op (go test -benchmem);
// those do not depend on host speed, so every row gates them at the
// one tolerance memTolerancePct, and the row fails when the input lacks
// them. In two-file mode every benchmark of old.txt is gated at
// -threshold, on ns/op only.
//
// Exit codes: 0 pass, 1 regression (or gated benchmark missing from
// the input), 2 usage or parse error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// memTolerancePct is how far a row's median B/op or allocs/op may
// rise above the ledger's before the row fails. One constant serves
// every row: unlike ns/op, neither depends on the host's speed.
const memTolerancePct = 10

// benchLine matches one result line of `go test -bench` output, e.g.
// "BenchmarkNetsim-8   20   15712203 ns/op   179296 B/op   67 allocs/op",
// capturing the name and the value-unit pairs from ns/op on. The
// trailing -8 is the GOMAXPROCS suffix and is stripped so results
// compare across machines.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+\s+ns/op.*)$`)

// samples are one benchmark's results over repeated runs. bytes and
// allocs hold the runs that reported -benchmem columns.
type samples struct {
	ns, bytes, allocs []float64
}

// parseBench collects the samples of each benchmark name from bench
// output.
func parseBench(r io.Reader) (map[string]*samples, error) {
	out := make(map[string]*samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		// The metrics are value-unit pairs: ns/op first, then any custom
		// metrics, then B/op and allocs/op under -benchmem.
		fields := strings.Fields(m[2])
		vals := map[string]float64{}
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: bad %s in %q: %v", fields[i+1], sc.Text(), err)
			}
			vals[fields[i+1]] = v
		}
		s := out[m[1]]
		if s == nil {
			s = &samples{}
			out[m[1]] = s
		}
		s.ns = append(s.ns, vals["ns/op"])
		b, okB := vals["B/op"]
		a, okA := vals["allocs/op"]
		if okB && okA {
			s.bytes = append(s.bytes, b)
			s.allocs = append(s.allocs, a)
		}
	}
	return out, sc.Err()
}

// result is one benchmark's medians over its runs; mem is false when
// no run reported the -benchmem columns.
type result struct {
	ns, bytes, allocs float64
	mem               bool
}

// readMedians parses one bench output file into one result per
// benchmark. A file without a single result line is an error.
func readMedians(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	all, err := parseBench(f)
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("benchdiff: no benchmark results in %s", path)
	}
	out := make(map[string]result, len(all))
	for name, s := range all {
		r := result{ns: median(s.ns), mem: len(s.bytes) > 0}
		if r.mem {
			r.bytes, r.allocs = median(s.bytes), median(s.allocs)
		}
		out[name] = r
	}
	return out, nil
}

// median returns the median of a non-empty sample set.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// row is one gated benchmark: the ledger's row schema. Benchmark,
// NsPerOp and ThresholdPct define the gate, and BytesPerOp and
// AllocsPerOp, when present, gate allocations at memTolerancePct; the
// rest is the record that explains the number.
type row struct {
	Benchmark    string   `json:"benchmark"`
	NsPerOp      float64  `json:"ns_per_op"`
	ThresholdPct float64  `json:"threshold_pct"`
	BytesPerOp   *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp  *float64 `json:"allocs_per_op,omitempty"`
	PriorNsPerOp float64  `json:"prior_ns_per_op,omitempty"`
	Machine      string   `json:"machine,omitempty"`
	Note         string   `json:"note,omitempty"`
}

// readLedger loads a benchmark ledger. It rejects unknown keys, so a
// misspelt or retired field cannot silently drop out of the gate, and
// duplicate rows, so each benchmark has exactly one limit.
func readLedger(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []row
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rows); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %v", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("benchdiff: %s: data after the ledger array", path)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("benchdiff: %s: no rows", path)
	}
	seen := make(map[string]bool, len(rows))
	for i, r := range rows {
		if r.Benchmark == "" || r.NsPerOp <= 0 || r.ThresholdPct <= 0 {
			return nil, fmt.Errorf("benchdiff: %s: row %d needs a \"benchmark\" name and positive \"ns_per_op\" and \"threshold_pct\"", path, i)
		}
		if (r.BytesPerOp != nil && *r.BytesPerOp < 0) || (r.AllocsPerOp != nil && *r.AllocsPerOp < 0) {
			return nil, fmt.Errorf("benchdiff: %s: row %d has a negative \"bytes_per_op\" or \"allocs_per_op\"", path, i)
		}
		if seen[r.Benchmark] {
			return nil, fmt.Errorf("benchdiff: %s: duplicate row for %s", path, r.Benchmark)
		}
		seen[r.Benchmark] = true
	}
	return rows, nil
}

// diff is one gated benchmark's baseline-vs-new comparison.
type diff struct {
	row
	new     result
	missing bool // gated but absent from the input
}

// computeDiffs pairs gated rows with new results, sorted by name for a
// deterministic report. Benchmarks in the input without a row are
// ignored (they are counted by the caller for the note line).
func computeDiffs(rows []row, cur map[string]result) []diff {
	out := make([]diff, 0, len(rows))
	for _, r := range rows {
		res, ok := cur[r.Benchmark]
		out = append(out, diff{row: r, new: res, missing: !ok})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Benchmark < out[j].Benchmark })
	return out
}

// memCheck is one allocation metric of a row: its ledger value and the
// input's median, if the input has one.
type memCheck struct {
	unit      string
	base, new float64
	missing   bool
}

// memChecks lists the allocation metrics the row gates.
func (d diff) memChecks() []memCheck {
	var out []memCheck
	for _, m := range []struct {
		unit string
		base *float64
		new  float64
	}{{"B/op", d.BytesPerOp, d.new.bytes}, {"allocs/op", d.AllocsPerOp, d.new.allocs}} {
		if m.base != nil {
			out = append(out, memCheck{unit: m.unit, base: *m.base, new: m.new, missing: d.missing || !d.new.mem})
		}
	}
	return out
}

// report renders the delta tables and verdict. It returns true when any
// benchmark regressed beyond its row's limit (or is missing from the
// input, or lacks an allocation metric its row gates). unmatched is the
// count of input benchmarks with no row.
func report(w io.Writer, diffs []diff, unmatched int) bool {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "benchmark\tbaseline ns/op\tnew ns/op\tdelta\tlimit\t\n")
	failed := map[string]bool{}
	for _, d := range diffs {
		if d.missing {
			fmt.Fprintf(tw, "%s\t%.0f\t-\tMISSING\t%.1f%%\t\n", d.Benchmark, d.NsPerOp, d.ThresholdPct)
			failed[d.Benchmark] = true
			continue
		}
		delta := 100 * (d.new.ns - d.NsPerOp) / d.NsPerOp
		mark := ""
		if delta > d.ThresholdPct {
			mark = "  REGRESSION"
			failed[d.Benchmark] = true
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.1f%%\t%.1f%%\t%s\n", d.Benchmark, d.NsPerOp, d.new.ns, delta, d.ThresholdPct, mark)
	}
	tw.Flush()
	header := true
	for _, d := range diffs {
		for _, m := range d.memChecks() {
			if header {
				fmt.Fprintln(w)
				fmt.Fprintf(tw, "benchmark\tmetric\tbaseline\tnew\tdelta\tlimit\t\n")
				header = false
			}
			if m.missing {
				fmt.Fprintf(tw, "%s\t%s\t%.0f\t-\tMISSING\t%.1f%%\t\n", d.Benchmark, m.unit, m.base, float64(memTolerancePct))
				failed[d.Benchmark] = true
				continue
			}
			delta := 0.0
			if m.new != m.base {
				delta = 100 * (m.new - m.base) / m.base // +Inf over a zero baseline
			}
			mark := ""
			if delta > memTolerancePct {
				mark = "  REGRESSION"
				failed[d.Benchmark] = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.0f\t%+.1f%%\t%.1f%%\t%s\n", d.Benchmark, m.unit, m.base, m.new, delta, float64(memTolerancePct), mark)
		}
	}
	tw.Flush()
	regressed := len(failed)
	if unmatched > 0 {
		fmt.Fprintf(w, "note: %d benchmark(s) in the input had no baseline\n", unmatched)
	}
	if regressed > 0 {
		fmt.Fprintf(w, "FAIL: %d of %d benchmarks regressed past their limit (or are missing)\n", regressed, len(diffs))
		return true
	}
	fmt.Fprintf(w, "PASS: %d benchmarks within their limits\n", len(diffs))
	return false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 10, "regression threshold in percent (two-file mode only)")
	var ledger string
	fs.Func("baseline", "BENCH_LEDGER.json ledger; each row carries its own threshold_pct", func(v string) error {
		if ledger != "" {
			return errors.New("given more than once")
		}
		ledger = v
		return nil
	})
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchdiff [-threshold pct] old.txt new.txt\n")
		fmt.Fprintf(stderr, "       benchdiff -baseline BENCH_LEDGER.json new.txt\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	thresholdSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "threshold" {
			thresholdSet = true
		}
	})

	var rows []row
	var newPath string
	switch {
	case ledger != "" && thresholdSet:
		fmt.Fprintln(stderr, "benchdiff: -threshold applies only to two-file mode; each ledger row carries its own threshold_pct")
		return 2
	case ledger != "" && fs.NArg() == 1:
		var err error
		if rows, err = readLedger(ledger); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		newPath = fs.Arg(0)
	case ledger == "" && fs.NArg() == 2:
		old, err := readMedians(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		for name, res := range old {
			rows = append(rows, row{Benchmark: name, NsPerOp: res.ns, ThresholdPct: *threshold})
		}
		newPath = fs.Arg(1)
	default:
		fs.Usage()
		return 2
	}

	cur, err := readMedians(newPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diffs := computeDiffs(rows, cur)
	unmatched := len(cur)
	for _, d := range diffs {
		if !d.missing {
			unmatched--
		}
	}
	if report(stdout, diffs, unmatched) {
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
