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
		`[{"benchmark": "BenchmarkX", "ns_per_op": 100, "threshold_pct": 10, "bytes_per_op": -1}]`,
		`[{"benchmark": "BenchmarkX", "ns_per_op": 100, "threshold_pct": 10, "allocs_per_op": -1}]`,
		`[]`, // gates nothing
	} {
		badPath := writeFile(t, dir, "bad.json", bad)
		if code := run([]string{"-baseline", badPath, full}, &out, &errOut); code != 2 {
			t.Errorf("ledger %s: exit %d, want 2", bad, code)
		}
	}
}

func TestMedianOverRepeatedRuns(t *testing.T) {
	all, err := parseBench(strings.NewReader(oldBench))
	if err != nil {
		t.Fatal(err)
	}
	if got := median(all["BenchmarkNetsim"].ns); got != 30000000 {
		t.Errorf("median = %v, want 30000000", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
}

// TestParseBenchmemColumns reads B/op and allocs/op after ns/op and any
// custom metrics, and leaves them out of the medians of the runs that
// lack them.
func TestParseBenchmemColumns(t *testing.T) {
	all, err := parseBench(strings.NewReader(`BenchmarkA-8 	30	 2000 ns/op	 3.4 ns/item	 4775176 B/op	 107 allocs/op
BenchmarkA-8 	30	 2100 ns/op	 3.5 ns/item	 4775130 B/op	 109 allocs/op
BenchmarkA-8 	30	 1900 ns/op	 3.3 ns/item	 4775140 B/op	 108 allocs/op
BenchmarkB-8 	30	 500 ns/op
BenchmarkB-8 	30	 600 ns/op	 64 B/op	 1 allocs/op
BenchmarkC 	30	 700 ns/op	 64 B/op
`))
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := all["BenchmarkA"], all["BenchmarkB"], all["BenchmarkC"]
	if a == nil || b == nil || c == nil {
		t.Fatalf("parsed %v", all)
	}
	if median(a.ns) != 2000 || median(a.bytes) != 4775140 || median(a.allocs) != 108 {
		t.Errorf("BenchmarkA medians %v ns, %v B, %v allocs", median(a.ns), median(a.bytes), median(a.allocs))
	}
	if len(b.ns) != 2 || len(b.bytes) != 1 || b.bytes[0] != 64 || b.allocs[0] != 1 {
		t.Errorf("BenchmarkB samples %+v", *b)
	}
	if len(c.ns) != 1 || len(c.bytes) != 0 {
		t.Errorf("a run with B/op but no allocs/op must count as no -benchmem run: %+v", *c)
	}
	if _, err := parseBench(strings.NewReader("BenchmarkA-8 30 2000 ns/op 1.2.3 B/op 1 allocs/op\n")); err == nil {
		t.Error("a malformed B/op value must fail the parse")
	}
}

// TestLedgerGatesAllocations gates B/op and allocs/op at the one
// memTolerancePct: within it passes, past it fails even when ns/op
// improved, a zero baseline fails on any allocation, and a row that
// records them fails when the input lacks -benchmem columns.
func TestLedgerGatesAllocations(t *testing.T) {
	dir := t.TempDir()
	ledger := writeFile(t, dir, "ledger.json", `[
  {"benchmark": "BenchmarkDecode", "ns_per_op": 1000, "threshold_pct": 100,
   "bytes_per_op": 4000000, "allocs_per_op": 100},
  {"benchmark": "BenchmarkZero", "ns_per_op": 1000, "threshold_pct": 100, "allocs_per_op": 0},
  {"benchmark": "BenchmarkTimeOnly", "ns_per_op": 1000, "threshold_pct": 100}
]`)
	run1 := func(bench string) (int, string) {
		t.Helper()
		path := writeFile(t, dir, "new.txt", bench)
		var out, errOut strings.Builder
		code := run([]string{"-baseline", ledger, path}, &out, &errOut)
		if errOut.Len() > 0 {
			t.Fatalf("stderr: %s", errOut.String())
		}
		return code, out.String()
	}
	// line returns the allocation table's line for a benchmark and unit.
	line := func(report, name, unit string) string {
		for _, l := range strings.Split(report, "\n") {
			if f := strings.Fields(l); len(f) > 1 && f[0] == name && f[1] == unit {
				return l
			}
		}
		return ""
	}

	code, out := run1(`BenchmarkDecode-8 30 900 ns/op 4300000 B/op 109 allocs/op
BenchmarkZero-8 30 900 ns/op 0 B/op 0 allocs/op
BenchmarkTimeOnly-8 30 900 ns/op
`)
	if code != 0 || !strings.Contains(out, "PASS: 3 benchmarks within their limits") {
		t.Errorf("+7.5%% B/op and +9%% allocs/op must pass, exit %d:\n%s", code, out)
	}
	if l := line(out, "BenchmarkDecode", "B/op"); !strings.Contains(l, "+7.5%") {
		t.Errorf("B/op row %q, want +7.5%%", l)
	}
	if l := line(out, "BenchmarkTimeOnly", "B/op"); l != "" {
		t.Errorf("a row without allocation fields must gate none: %q", l)
	}

	code, out = run1(`BenchmarkDecode-8 30 500 ns/op 7600000 B/op 100 allocs/op
BenchmarkZero-8 30 900 ns/op 16 B/op 1 allocs/op
BenchmarkTimeOnly-8 30 900 ns/op
`)
	if code != 1 || !strings.Contains(out, "FAIL: 2 of 3 benchmarks regressed") {
		t.Errorf("one more copy of the recording and one allocation over zero must fail, exit %d:\n%s", code, out)
	}
	if l := line(out, "BenchmarkDecode", "B/op"); !strings.Contains(l, "+90.0%") || !strings.Contains(l, "REGRESSION") {
		t.Errorf("B/op row %q, want a +90.0%% REGRESSION", l)
	}
	if l := line(out, "BenchmarkDecode", "allocs/op"); l == "" || strings.Contains(l, "REGRESSION") {
		t.Errorf("allocs/op row %q must pass", l)
	}
	if l := line(out, "BenchmarkZero", "allocs/op"); !strings.Contains(l, "+Inf%") || !strings.Contains(l, "REGRESSION") {
		t.Errorf("zero-baseline row %q, want a +Inf%% REGRESSION", l)
	}

	code, out = run1(`BenchmarkDecode-8 30 900 ns/op
BenchmarkZero-8 30 900 ns/op 0 B/op 0 allocs/op
BenchmarkTimeOnly-8 30 900 ns/op
`)
	if code != 1 || !strings.Contains(out, "FAIL: 1 of 3 benchmarks regressed") {
		t.Errorf("a row with allocation fields must fail without -benchmem columns, exit %d:\n%s", code, out)
	}
	for _, unit := range []string{"B/op", "allocs/op"} {
		if l := line(out, "BenchmarkDecode", unit); !strings.Contains(l, "MISSING") {
			t.Errorf("%s row %q, want MISSING", unit, l)
		}
	}
}
