package main

import (
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden report output")

const oldBench = `goos: linux
goarch: amd64
pkg: sudc
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkNetsim-8         	      20	  30000000 ns/op	17517078 B/op	  270657 allocs/op
BenchmarkNetsim-8         	      20	  29800000 ns/op	17517078 B/op	  270657 allocs/op
BenchmarkNetsim-8         	      20	  30400000 ns/op	17517078 B/op	  270657 allocs/op
BenchmarkNetsimObserved-8 	      20	  31000000 ns/op
BenchmarkParOverhead/workers=4/items=65536-8 	    5000	  224000 ns/op	 3.4 ns/item
PASS
`

const newBenchPass = `goos: linux
BenchmarkNetsim-8         	      20	  15700000 ns/op	  179296 B/op	      67 allocs/op
BenchmarkNetsimObserved-8 	      20	  31100000 ns/op
BenchmarkParOverhead/workers=4/items=65536-8 	    5000	  220000 ns/op	 3.3 ns/item
BenchmarkExtra-8          	      10	   1000000 ns/op
PASS
`

const newBenchFail = `BenchmarkNetsim-8         	      20	  36000000 ns/op
BenchmarkParOverhead/workers=4/items=65536-8 	    5000	  220000 ns/op
PASS
`

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenPassReport pins the two-file comparison format byte-exact:
// medians over repeated runs, name-sorted rows, the no-baseline note,
// and the PASS verdict line.
func TestGoldenPassReport(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeFile(t, dir, "old.txt", oldBench)
	newPath := writeFile(t, dir, "new.txt", newBenchPass)
	var out, errOut strings.Builder
	if code := run([]string{"-threshold", "10", oldPath, newPath}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	checkGolden(t, "report_pass.golden", out.String())
}

// TestGoldenFailReport pins the regression format: the REGRESSION mark,
// the MISSING row for a baseline benchmark absent from the input, and
// the FAIL verdict with exit code 1.
func TestGoldenFailReport(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeFile(t, dir, "old.txt", oldBench)
	newPath := writeFile(t, dir, "new.txt", newBenchFail)
	var out, errOut strings.Builder
	if code := run([]string{"-threshold", "10", oldPath, newPath}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errOut.String())
	}
	checkGolden(t, "report_fail.golden", out.String())
}

// TestLedgerMode gates bench output against a ledger: each row at its
// own threshold_pct, so in one run the same +20% delta fails a 10% row
// and passes a 25% row, and narrative fields are accepted.
func TestLedgerMode(t *testing.T) {
	dir := t.TempDir()
	ledger := writeFile(t, dir, "ledger.json", `[
  {"benchmark": "BenchmarkTight", "ns_per_op": 1000, "threshold_pct": 10,
   "prior_ns_per_op": 2000, "machine": "test host", "note": "always-on path"},
  {"benchmark": "BenchmarkLoose/shards=2", "ns_per_op": 1000, "threshold_pct": 25}
]`)
	okPath := writeFile(t, dir, "ok.txt",
		"BenchmarkTight-8 5 1050 ns/op\nBenchmarkLoose/shards=2-8 5 1050 ns/op\nBenchmarkExtra-8 5 1 ns/op\nPASS\n")
	var out, errOut strings.Builder
	if code := run([]string{"-baseline", ledger, okPath}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s\n%s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "PASS: 2 benchmarks within their limits") ||
		!strings.Contains(out.String(), "note: 1 benchmark(s) in the input had no baseline") {
		t.Errorf("unexpected report:\n%s", out.String())
	}

	slowPath := writeFile(t, dir, "slow.txt",
		"BenchmarkTight-8 5 1200 ns/op\nBenchmarkLoose/shards=2-8 5 1200 ns/op\nPASS\n")
	out.Reset()
	if code := run([]string{"-baseline", ledger, slowPath}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.Contains(line, "BenchmarkTight"):
			if !strings.Contains(line, "+20.0%") || !strings.Contains(line, "10.0%  REGRESSION") {
				t.Errorf("10%% row must fail at +20%%: %q", line)
			}
		case strings.Contains(line, "BenchmarkLoose"):
			if !strings.Contains(line, "+20.0%") || strings.Contains(line, "REGRESSION") {
				t.Errorf("25%% row must pass at +20%%: %q", line)
			}
		}
	}
	if !strings.Contains(out.String(), "FAIL: 1 of 2 benchmarks regressed past their limit") {
		t.Errorf("unexpected verdict:\n%s", out.String())
	}
}

// TestRepoLedger guards the checked-in BENCH_LEDGER.json: it parses with
// the reader the gate uses, and every row's top-level benchmark (the
// name before the first "/") is declared in a _test.go file of the root
// module, so renaming a benchmark fails here instead of leaving a row
// that only the CI gate reads.
func TestRepoLedger(t *testing.T) {
	root := filepath.Join("..", "..")
	rows, err := readLedger(filepath.Join(root, "BENCH_LEDGER.json"))
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(b \*testing\.B\)`)
	declared := make(map[string]bool)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			// Hidden directories and nested modules (bench/) are not
			// part of the root module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		top, _, _ := strings.Cut(r.Benchmark, "/")
		if !declared[top] {
			t.Errorf("ledger row %s: no func %s(b *testing.B) in the root module's tests", r.Benchmark, top)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	for _, args := range [][]string{
		{},                              // no inputs
		{"one.txt"},                     // one positional without baselines
		{"-baseline", "x.json"},         // baselines without an input file
		{"a.txt", "b.txt", "c.txt"},     // too many positionals
		{"-threshold", "ten", "a", "b"}, // bad flag value
	} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	dir := t.TempDir()
	empty := writeFile(t, dir, "empty.txt", "no benchmarks here\n")
	full := writeFile(t, dir, "full.txt", "BenchmarkX-8 1 100 ns/op\n")
	if code := run([]string{empty, full}, &out, &errOut); code != 2 {
		t.Error("empty old file must be a usage error")
	}
	if code := run([]string{full, empty}, &out, &errOut); code != 2 {
		t.Error("empty new file must be a usage error")
	}
}

// TestLedgerRejects pins the ledger's schema checks and the flags it
// forbids: each case would otherwise pass the gate, and must exit 2.
func TestLedgerRejects(t *testing.T) {
	var out, errOut strings.Builder
	dir := t.TempDir()
	full := writeFile(t, dir, "full.txt", "BenchmarkX-8 1 100 ns/op\n")
	ledger := writeFile(t, dir, "ledger.json", `[{"benchmark": "BenchmarkX", "ns_per_op": 100, "threshold_pct": 10}]`)
	for _, args := range [][]string{
		{"-threshold", "10", "-baseline", ledger, full},  // per-row limits only
		{"-baseline", ledger, "-baseline", ledger, full}, // not repeatable
	} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	for _, bad := range []string{
		`[{"benchmark": "BenchmarkX", "ns_per_op": 100, "threshold_pct": 10, "aux_gates": {}}]`, // unknown key
		`[{"benchmark": "BenchmarkX", "ns_per_op": 100, "threshold_pct": 10},
		  {"benchmark": "BenchmarkX", "ns_per_op": 200, "threshold_pct": 25}]`, // duplicate row
		`[{"benchmark": "BenchmarkX", "ns_per_op": 100, "threshold_pct": 0}]`,
		`[{"benchmark": "BenchmarkX", "ns_per_op": 100, "threshold_pct": -10}]`,
		`[{"benchmark": "BenchmarkX", "ns_per_op": 0, "threshold_pct": 10}]`,
		`[{"benchmark": "BenchmarkX", "ns_per_op": -1, "threshold_pct": 10}]`,
		`[{"ns_per_op": 100, "threshold_pct": 10}]`,                               // no benchmark name
		`{"benchmark": "BenchmarkX", "ns_per_op": 100}`,                           // a pre-ledger single-file baseline
		`[{"benchmark": "BenchmarkX", "ns_per_op": 100, "threshold_pct": 10}] []`, // trailing data
		`[]`, // gates nothing
	} {
		badPath := writeFile(t, dir, "bad.json", bad)
		if code := run([]string{"-baseline", badPath, full}, &out, &errOut); code != 2 {
			t.Errorf("ledger %s: exit %d, want 2", bad, code)
		}
	}
}

func TestMedianOverRepeatedRuns(t *testing.T) {
	samples, err := parseBench(strings.NewReader(oldBench))
	if err != nil {
		t.Fatal(err)
	}
	if got := median(samples["BenchmarkNetsim"]); got != 30000000 {
		t.Errorf("median = %v, want 30000000", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
}
