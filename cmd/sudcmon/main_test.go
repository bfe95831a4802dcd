package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden analysis output")

func runMon(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return b.String()
}

// faultedArgs is the pinned golden scenario: small, fault-heavy, seeded.
var faultedArgs = []string{"-satellites", "2", "-power", "0.5", "-hours", "0.2",
	"-mttf", "2", "-sefi", "20", "-outage", "15", "-seed", "7", "-top", "2"}

func TestGoldenFaultedAnalysis(t *testing.T) {
	// The whole report derives from simulated time, so it is pinned
	// byte-for-byte. Regenerate with: go test ./cmd/sudcmon -update
	out := runMon(t, faultedArgs...)
	golden := filepath.Join("testdata", "faulted.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("analysis drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, out, want)
	}
}

func TestAnalysisSections(t *testing.T) {
	out := runMon(t, faultedArgs...)
	for _, want := range []string{
		"events recorded",
		"Stage breakdown (completed frames):",
		"queue", "transfer", "retry-backoff", "compute", "downlink-wait", "end-to-end",
		"Top 2 slowest frames:",
		"Degraded intervals:",
		"isl-outage", "sefi",
		"availability from trace:", "(DES reported",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFaultFreeReportsNoDegradedIntervals(t *testing.T) {
	out := runMon(t, "-satellites", "2", "-hours", "0.1", "-top", "1")
	if !strings.Contains(out, "No degraded intervals") {
		t.Errorf("fault-free run must say so:\n%s", out)
	}
}

func TestSaveAndLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "trace.jsonl")
	direct := runMon(t, append(faultedArgs, "-jsonl", jsonl)...)
	loaded := runMon(t, "-load", jsonl, "-top", "2",
		"-workers", "1", "-need", "1")

	// Everything from the stage table onward must match the direct run
	// (headers differ: the loaded report has no scenario/DES context).
	cut := func(s string) string {
		i := strings.Index(s, "Stage breakdown")
		j := strings.Index(s, "availability from trace")
		if i < 0 || j < 0 {
			t.Fatalf("report missing sections:\n%s", s)
		}
		return s[i:j]
	}
	if cut(direct) != cut(loaded) {
		t.Errorf("loaded analysis differs from direct run:\n--- direct ---\n%s\n--- loaded ---\n%s",
			cut(direct), cut(loaded))
	}
	if !strings.Contains(loaded, "loaded "+jsonl) {
		t.Errorf("loaded report missing header:\n%s", loaded)
	}
}

func TestChromeExportFlag(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "trace.json")
	out := runMon(t, append(faultedArgs, "-chrome", chrome)...)
	if !strings.Contains(out, "wrote Chrome trace") {
		t.Errorf("missing Chrome confirmation:\n%s", out)
	}
	b, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &parsed); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Error("Chrome export has no events")
	}
}

func TestBadInputs(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-load", "/no/such/file.jsonl"}, &b); err == nil {
		t.Error("missing load file must error")
	}
	if err := run([]string{"-app", "Whale Counting"}, &b); err == nil {
		t.Error("unknown app must error")
	}
	if err := run([]string{"-spares", "-1"}, &b); err == nil {
		t.Error("negative spares must error")
	}
	if err := run([]string{"-shards", "-1"}, &b); err == nil {
		t.Error("negative shard count must error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"t\":1,\"k\":\"warp_drive\",\"n\":-1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load", bad}, &b); err == nil {
		t.Error("malformed trace must error")
	}
}

func TestDegradedScenarioReportsEnvironmentIntervals(t *testing.T) {
	// A throttled run over a full orbit must surface the environmental
	// windows next to the fault windows: throttle intervals with the
	// severity-scaled multiplier and the eclipse brownout.
	out := runMon(t, "-satellites", "2", "-power", "2", "-hours", "2",
		"-mttf", "4", "-seed", "7", "-top", "1", "-throttle", "1")
	for _, want := range []string{"throttle", "brownout", "availability from trace"} {
		if !strings.Contains(out, want) {
			t.Errorf("degraded report missing %q:\n%s", want, out)
		}
	}
}

func TestDegradedRoundTripKeepsEnvironmentIntervals(t *testing.T) {
	// The brownout/throttle events survive the JSONL round trip, so a
	// saved degraded recording reloads with the same interval kinds.
	dir := t.TempDir()
	path := filepath.Join(dir, "deg.jsonl")
	runMon(t, "-satellites", "2", "-power", "2", "-hours", "2",
		"-seed", "7", "-top", "0", "-throttle", "0.8", "-jsonl", path)
	out := runMon(t, "-load", path, "-top", "0")
	for _, want := range []string{"throttle", "brownout"} {
		if !strings.Contains(out, want) {
			t.Errorf("reloaded report missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownCalibrationRejected(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-throttle", "1", "-cots", "unobtainium", "-hours", "0.1"}, &b); err == nil {
		t.Error("unknown calibration must error")
	}
	// The calibration is checked even when no degradation runs.
	if err := run([]string{"-cots", "bogus", "-hours", "0.1"}, &b); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown calibration without -throttle: err = %v, want it rejected", err)
	}
}

// sloArgs is the pinned degraded SLO scenario: the 2-hour horizon
// crosses an eclipse, and the fault stack keeps every attribution
// source (throttle, brownout, outage) active.
var sloArgs = []string{"-satellites", "2", "-power", "0.5", "-hours", "2",
	"-mttf", "2", "-sefi", "20", "-outage", "15", "-throttle", "1",
	"-shed", "40", "-seed", "7", "-top", "2", "-slo-report"}

func TestGoldenSLOReport(t *testing.T) {
	// The windowed report derives from simulated time only, so it is
	// pinned byte-for-byte. Regenerate with: go test ./cmd/sudcmon -update
	out := runMon(t, sloArgs...)
	golden := filepath.Join("testdata", "slo_report.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("SLO report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, out, want)
	}
}

func TestSLOReportSections(t *testing.T) {
	out := runMon(t, sloArgs...)
	for _, want := range []string{
		"SLO report:", "burn policy",
		"avail", "p99", "loss", "$/frame", "burn",
		"burn-rate alerts:", "cause",
		"attainment:",
		"worst window w",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SLO report missing %q:\n%s", want, out)
		}
	}
}

func TestDiffComparesTwoRecordings(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	runMon(t, append(faultedArgs, "-jsonl", a)...)
	runMon(t, "-satellites", "2", "-power", "0.5", "-hours", "0.2",
		"-mttf", "2", "-sefi", "20", "-outage", "15", "-throttle", "1",
		"-shed", "40", "-seed", "7", "-top", "2", "-jsonl", b)

	out := runMon(t, "-diff", "-workers", "1", "-need", "1", "-window", "5", a, b)
	for _, want := range []string{
		"diff " + a, "300 s windows",
		"Δavail", "Δp99", "Δloss", "stageΔ", "cause (B)",
		"w000", "attainment",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	// Diffing a recording against itself must show no metric deltas.
	self := runMon(t, "-diff", "-workers", "1", "-need", "1", a, a)
	for _, banned := range []string{"only in A", "only in B"} {
		if strings.Contains(self, banned) {
			t.Errorf("self-diff reports %q:\n%s", banned, self)
		}
	}
	if strings.Contains(self, "+1.") || strings.Contains(self, "-1.") {
		t.Errorf("self-diff shows nonzero deltas:\n%s", self)
	}
}

func TestDiffArgumentErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-diff", "one.jsonl"}, &b); err == nil {
		t.Error("-diff with one path must error")
	}
	if err := run([]string{"-diff", "/no/such/a.jsonl", "/no/such/b.jsonl"}, &b); err == nil {
		t.Error("-diff with missing files must error")
	}
	if err := run([]string{"-window", "0"}, &b); err == nil {
		t.Error("non-positive window width must error")
	}
}

func TestPlacementTierCounts(t *testing.T) {
	out := runMon(t, "-hours", "0.5", "-placement", "static-cloud", "-top", "1")
	if !strings.Contains(out, "placement tiers:") || !strings.Contains(out, "cloud") {
		t.Errorf("per-tier counts missing:\n%s", out)
	}
	if !strings.Contains(out, "placed on the cloud tier") {
		t.Errorf("slowest-frame timeline missing the placed event:\n%s", out)
	}
}
