package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sudc/internal/obs/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/usage.golden")

func runTool(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b, &b); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return b.String()
}

func TestDefaultRun(t *testing.T) {
	out := runTool(t)
	for _, want := range []string{
		"4 kW compute", "RTX 3090", "Mass budget", "Cost breakdown",
		"first-unit TCO", "power", "structure",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Default is a single unit: no Wright's-law line.
	if strings.Contains(out, "-unit run") {
		t.Error("single-unit run must not print production pricing")
	}
}

func TestDeviceSelection(t *testing.T) {
	out := runTool(t, "-device", "H100", "-power", "10")
	if !strings.Contains(out, "H100") || !strings.Contains(out, "10 kW compute") {
		t.Errorf("H100/10kW not reflected in output:\n%s", out)
	}
}

func TestUnknownDevice(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-device", "TPUv9"}, &b, &b); err == nil {
		t.Error("unknown device must error")
	}
}

func TestCompressionFlag(t *testing.T) {
	plain := runTool(t)
	compressed := runTool(t, "-compress", "neural")
	// Neural compression shrinks the installed ISL from ~26 to ~6.6 Gbit/s.
	if !strings.Contains(compressed, "6.55 Gbit/s") {
		t.Errorf("neural compression not reflected:\n%s", compressed)
	}
	if plain == compressed {
		t.Error("compression must change the design")
	}
	var b strings.Builder
	if err := run([]string{"-compress", "zip"}, &b, &b); err == nil {
		t.Error("unknown compression must error")
	}
}

func TestNoISL(t *testing.T) {
	out := runTool(t, "-no-isl")
	if !strings.Contains(out, "0 optical heads") {
		t.Errorf("no-isl must install no heads:\n%s", out)
	}
}

func TestSeerModel(t *testing.T) {
	out := runTool(t, "-seer")
	if !strings.Contains(out, "SEER-like") {
		t.Error("SEER parameter set not used")
	}
}

func TestProductionRun(t *testing.T) {
	out := runTool(t, "-units", "50")
	if !strings.Contains(out, "50-unit run (b=0.75)") {
		t.Errorf("production pricing missing:\n%s", out)
	}
}

func TestBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-nonsense"}, &b, &b); err == nil {
		t.Error("unknown flag must error")
	}
}

func TestInvalidPower(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-power", "0"}, &b, &b); err == nil {
		t.Error("zero power must error")
	}
}

func TestMetricsFlag(t *testing.T) {
	out := runTool(t, "-metrics")
	for _, want := range []string{
		"metrics:",
		"gauge design/wet_mass_kg",
		"gauge design/eol_power_w",
		"span sudctool/build count=1",
		"span sudctool/cost count=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, out)
		}
	}
	if plain := runTool(t); strings.Contains(plain, "metrics:") {
		t.Error("metrics must be opt-in")
	}
}

func TestTraceFlag(t *testing.T) {
	out := runTool(t, "-trace")
	if !strings.Contains(out, "trace sudctool/build wall=") ||
		!strings.Contains(out, "trace sudctool/cost wall=") {
		t.Errorf("-trace must stream build and cost spans:\n%s", out)
	}
}

func TestBadPprofAddr(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-pprof", "not-an-address"}, &b, &b); err == nil {
		t.Error("unbindable pprof address must error")
	}
}

func TestJSONOutput(t *testing.T) {
	out := runTool(t, "-json")
	var report map[string]any
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if report["compute_power_w"] != 4000.0 {
		t.Errorf("compute_power_w = %v", report["compute_power_w"])
	}
	cost, ok := report["cost_breakdown"].(map[string]any)
	if !ok {
		t.Fatal("missing cost_breakdown")
	}
	if cost["tco_usd"].(float64) <= 0 {
		t.Error("non-positive TCO in JSON")
	}
	if len(report["mass_budget"].([]any)) != 10 {
		t.Error("mass budget rows missing")
	}
}

func TestJSONWithObsFlagsIsOneDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	var stdout, stderr strings.Builder
	args := []string{"-json", "-metrics", "-trace", "-trace-out", path, "-pprof", "127.0.0.1:0"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	dec := json.NewDecoder(strings.NewReader(stdout.String()))
	var report map[string]any
	if err := dec.Decode(&report); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout.String())
	}
	if err := dec.Decode(&report); err != io.EOF {
		t.Errorf("stdout holds more than one JSON document (second decode: %v):\n%s", err, stdout.String())
	}
	for _, want := range []string{
		"pprof: serving on http://127.0.0.1:",
		"trace sudctool/build wall=",
		"\nmetrics:\n",
		"gauge design/wet_mass_kg",
		"\ntrace: wrote 1 events to " + path,
	} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
}

func TestTraceOutRecordsSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	out := runTool(t, "-trace-out", path)
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
	names := map[string]bool{}
	for _, e := range rec.Events() {
		if e.Kind != trace.SpanDone {
			t.Errorf("sudctool trace must hold only span events, got %v", e.Kind)
		}
		names[e.Name] = true
	}
	if !names["sudctool/build"] || !names["sudctool/cost"] {
		t.Errorf("span trace missing stages, got %v", names)
	}
}

func TestUsageGolden(t *testing.T) {
	// -h prints every flag's name, default and help line; the golden
	// pins the flag set. Regenerate with:
	// go test ./cmd/sudctool -run TestUsageGolden -update
	var b strings.Builder
	if err := run([]string{"-h"}, &b, &b); !errors.Is(err, flag.ErrHelp) {
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
