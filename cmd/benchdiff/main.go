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
// always-on paths next to loose ones on GC-bound opt-in paths. In
// two-file mode every benchmark of old.txt is gated at -threshold.
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
	"text/tabwriter"
)

// benchLine matches one result line of `go test -bench` output, e.g.
// "BenchmarkNetsim-8   20   15712203 ns/op   179296 B/op   67 allocs/op".
// The trailing -8 is the GOMAXPROCS suffix and is stripped so results
// compare across machines.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+)\s+ns/op`)

// parseBench collects ns/op samples per benchmark name from bench output.
func parseBench(r io.Reader) (map[string][]float64, error) {
	out := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchdiff: bad ns/op in %q: %v", sc.Text(), err)
		}
		out[m[1]] = append(out[m[1]], ns)
	}
	return out, sc.Err()
}

// readMedians parses one bench output file into one median ns/op per
// benchmark. A file without a single result line is an error.
func readMedians(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples, err := parseBench(f)
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("benchdiff: no benchmark results in %s", path)
	}
	out := make(map[string]float64, len(samples))
	for name, xs := range samples {
		out[name] = median(xs)
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
// NsPerOp and ThresholdPct define the gate; the rest is the record
// that explains the number.
type row struct {
	Benchmark    string  `json:"benchmark"`
	NsPerOp      float64 `json:"ns_per_op"`
	ThresholdPct float64 `json:"threshold_pct"`
	PriorNsPerOp float64 `json:"prior_ns_per_op,omitempty"`
	Machine      string  `json:"machine,omitempty"`
	Note         string  `json:"note,omitempty"`
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
	new     float64
	missing bool // gated but absent from the input
}

// computeDiffs pairs gated rows with new results, sorted by name for a
// deterministic report. Benchmarks in the input without a row are
// ignored (they are counted by the caller for the note line).
func computeDiffs(rows []row, cur map[string]float64) []diff {
	out := make([]diff, 0, len(rows))
	for _, r := range rows {
		ns, ok := cur[r.Benchmark]
		out = append(out, diff{row: r, new: ns, missing: !ok})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Benchmark < out[j].Benchmark })
	return out
}

// report renders the delta table and verdict. It returns true when any
// benchmark regressed beyond its row's limit (or is missing from the
// input). unmatched is the count of input benchmarks with no row.
func report(w io.Writer, diffs []diff, unmatched int) bool {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "benchmark\tbaseline ns/op\tnew ns/op\tdelta\tlimit\t\n")
	regressed := 0
	for _, d := range diffs {
		if d.missing {
			fmt.Fprintf(tw, "%s\t%.0f\t-\tMISSING\t%.1f%%\t\n", d.Benchmark, d.NsPerOp, d.ThresholdPct)
			regressed++
			continue
		}
		delta := 100 * (d.new - d.NsPerOp) / d.NsPerOp
		mark := ""
		if delta > d.ThresholdPct {
			mark = "  REGRESSION"
			regressed++
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.1f%%\t%.1f%%\t%s\n", d.Benchmark, d.NsPerOp, d.new, delta, d.ThresholdPct, mark)
	}
	tw.Flush()
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
		for name, ns := range old {
			rows = append(rows, row{Benchmark: name, NsPerOp: ns, ThresholdPct: *threshold})
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
