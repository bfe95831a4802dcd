package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sudc/internal/obs/trace"
	"sudc/internal/par"
	"sudc/internal/par/partest"
)

var update = flag.Bool("update", false, "rewrite testdata/usage.golden")

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return b.String()
}

func TestList(t *testing.T) {
	out := runCmd(t, "-list")
	for _, want := range []string{"Table III", "Figure 5", "Ablation A1", "Extension E5"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q", want)
		}
	}
	// -list must not actually run anything (fast, no tables).
	if strings.Contains(out, "---") {
		t.Error("-list should not render tables")
	}
}

func TestOnly(t *testing.T) {
	out := runCmd(t, "-only", "Figure 12")
	if !strings.Contains(out, "Figure 12") || !strings.Contains(out, "45 °C") {
		t.Errorf("Figure 12 output malformed:\n%s", out)
	}
	if strings.Contains(out, "Figure 5 —") {
		t.Error("-only must run a single exhibit")
	}
	// -only reaches ablations and extensions too.
	out = runCmd(t, "-only", "Ablation A3")
	if !strings.Contains(out, "gridded ion") {
		t.Error("-only must reach ablations")
	}
}

func TestOnlyUnknown(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-only", "Figure 99"}, &b); err == nil {
		t.Error("unknown exhibit must error")
	}
}

func TestAblationsFlag(t *testing.T) {
	out := runCmd(t, "-ablations")
	if !strings.Contains(out, "Ablation A1") || !strings.Contains(out, "Ablation A7") {
		t.Error("-ablations must run all ablation studies")
	}
	if strings.Contains(out, "Figure 5 —") {
		t.Error("-ablations must not run paper exhibits")
	}
}

func TestParallelGoldenOutput(t *testing.T) {
	// -parallel must render byte-identical output to the serial run, for
	// any worker count, across paper exhibits and extensions alike.
	serial := runCmd(t)
	for _, w := range []string{"1", "2", "8"} {
		got := runCmd(t, "-parallel", "-workers", w)
		if got != serial {
			t.Errorf("-parallel -workers %s output differs from serial run", w)
		}
	}
	serialExt := runCmd(t, "-extensions")
	if got := runCmd(t, "-extensions", "-parallel"); got != serialExt {
		t.Error("-extensions -parallel output differs from serial run")
	}
}

func TestMetricsFlagSerial(t *testing.T) {
	out := runCmd(t, "-only", "Figure 12", "-metrics")
	for _, want := range []string{
		"metrics:",
		"span experiments/Figure 12 count=1",
		"wall_ms=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsFlagParallelRecordsEngine(t *testing.T) {
	out := runCmd(t, "-only", "Figure 12", "-parallel", "-metrics")
	for _, want := range []string{
		"counter experiments/exhibits 1",
		"counter par/runs",
		"counter par/items",
		"span experiments/Figure 12 count=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-parallel -metrics output missing %q:\n%s", want, out)
		}
	}
	// The observer must be uninstalled on return: a later run without
	// -metrics prints no metrics section.
	if plain := runCmd(t, "-only", "Figure 12"); strings.Contains(plain, "metrics:") {
		t.Error("metrics must be opt-in per invocation")
	}
}

// workerObserver records the largest pool any engine run resolved.
type workerObserver struct{ max atomic.Int64 }

func (o *workerObserver) RunStarted(items, workers int) {
	for {
		m := o.max.Load()
		if int64(workers) <= m || o.max.CompareAndSwap(m, int64(workers)) {
			return
		}
	}
}
func (o *workerObserver) ItemsDone(int)                       {}
func (o *workerObserver) RunFinished(int, int, time.Duration) {}

// TestWorkersFlagBoundsNestedRuns pins -workers as a process-wide
// bound: the exhibits' own sweeps (E6's trade study here) run under it
// too, with or without -parallel, and the previous default comes back
// on return.
func TestWorkersFlagBoundsNestedRuns(t *testing.T) {
	partest.WithDefaultWorkers(t, 4)
	for _, args := range [][]string{
		{"-only", "Extension E6", "-workers", "1"},
		{"-only", "Extension E6", "-workers", "1", "-parallel"},
	} {
		var o workerObserver
		par.SetObserver(&o)
		runCmd(t, args...)
		par.SetObserver(nil)
		if m := o.max.Load(); m != 1 {
			t.Errorf("%v: an engine run used %d workers, want 1", args, m)
		}
		if d := par.DefaultWorkers(); d != 4 {
			t.Errorf("%v: default workers %d after return, want 4 restored", args, d)
		}
	}
}

func TestTraceFlag(t *testing.T) {
	out := runCmd(t, "-only", "Figure 12", "-trace")
	if !strings.Contains(out, "trace experiments/Figure 12 wall=") {
		t.Errorf("-trace must stream the exhibit span:\n%s", out)
	}
	if strings.Contains(out, "metrics:") {
		t.Error("-trace alone must not append the snapshot")
	}
}

func TestBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-bogus"}, &b); err == nil {
		t.Error("unknown flag must error")
	}
}

func TestTraceOutRecordsExhibitSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	out := runCmd(t, "-only", "Table III", "-trace-out", path)
	if !strings.Contains(out, "trace: wrote") {
		t.Errorf("-trace-out must confirm the write:\n%s", out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := trace.DecodeJSONL(f)
	if err != nil {
		t.Fatalf("written trace does not decode: %v", err)
	}
	var found bool
	for _, e := range rec.Events() {
		if e.Kind == trace.SpanDone && e.Name == "experiments/Table III" {
			found = true
		}
	}
	if !found {
		t.Errorf("trace missing the exhibit span; %d events", rec.Len())
	}
}

func TestUsageGolden(t *testing.T) {
	// -h prints every flag's name, default and help line; the golden
	// pins the flag set. Regenerate with:
	// go test ./cmd/experiments -run TestUsageGolden -update
	var b strings.Builder
	if err := run([]string{"-h"}, &b); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	golden := filepath.Join("testdata", "usage.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("usage drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, b.String(), want)
	}
}
