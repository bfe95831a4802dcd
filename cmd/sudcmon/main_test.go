package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sudc/internal/obs/latency"
	"sudc/internal/obs/trace"
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

func TestStalledFramesMatchScopeDecompose(t *testing.T) {
	// A multi-cell recording with ISL outages and SEFIs; two cells
	// stall frames on a SEFI of their worker 0, so the cause name alone
	// does not identify the interval. Each printed interval's frame
	// count must equal the reference: the count of that scope's frames
	// in latency.DecomposeAll whose causes name it.
	const hours = 0.5
	path := filepath.Join(t.TempDir(), "walker.jsonl")
	out := runMon(t, "-planes", "4", "-sats-per-plane", "4", "-sudc-every", "2",
		"-power", "0.5", "-hours", fmt.Sprint(hours), "-outage", "5", "-sefi", "2",
		"-seed", "3", "-top", "0", "-jsonl", path)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := trace.DecodeJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]map[string]int{} // scope -> cause -> frames
	for _, fr := range latency.DecomposeAll(rec) {
		if counts[fr.Scope] == nil {
			counts[fr.Scope] = map[string]int{}
		}
		for _, c := range fr.Causes {
			counts[fr.Scope][c]++
		}
	}
	var want []string
	nonzero := false
	for _, scope := range append([]string{""}, rec.Scopes()...) {
		r, name := rec, scope
		if scope != "" {
			r = rec.Child(scope)
		} else {
			name = "main"
		}
		for _, iv := range latency.DegradedIntervals(r.Events(), hours*3600) {
			n := counts[scope][iv.Cause]
			want = append(want, fmt.Sprintf("%s %s %.1fs %d", name, iv.Kind, iv.Start, n))
			nonzero = nonzero || n > 0
		}
	}
	if len(rec.Scopes()) < 2 || !nonzero {
		t.Fatalf("scenario must record several cells and stall some frames: %d scopes, nonzero=%v",
			len(rec.Scopes()), nonzero)
	}

	_, section, ok := strings.Cut(out, "Degraded intervals:\n")
	if !ok {
		t.Fatalf("report has no degraded intervals:\n%s", out)
	}
	var got []string
	for _, line := range strings.Split(section, "\n")[1:] { // skip the column header
		fields := strings.Fields(line)
		if len(fields) == 0 {
			break
		}
		if strings.Contains(line, "availability from trace") {
			continue
		}
		if len(fields) != 6 {
			t.Fatalf("unexpected interval row %q", line)
		}
		got = append(got, strings.Join([]string{fields[0], fields[1], fields[2], fields[5]}, " "))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("printed intervals differ from the per-scope reference:\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
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

func TestTooManyWindowsRejected(t *testing.T) {
	// 4.8 ms windows cut a 0.1 h recording into ~75,000 windows, above
	// window.MaxWindows; both window-rebuilding paths refuse the width
	// before rebuilding.
	var b strings.Builder
	err := run([]string{"-slo-report", "-window", "8e-5", "-satellites", "2", "-hours", "0.1"}, &b)
	if err == nil || !strings.Contains(err.Error(), "windows") {
		t.Errorf("-slo-report -window 8e-5 = %v, want a window-count error", err)
	}
	a := filepath.Join(t.TempDir(), "a.jsonl")
	runMon(t, "-satellites", "2", "-hours", "0.1", "-jsonl", a)
	err = run([]string{"-diff", "-window", "8e-5", a, a}, &b)
	if err == nil || !strings.Contains(err.Error(), "windows") {
		t.Errorf("-diff -window 8e-5 = %v, want a window-count error", err)
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

func TestUsageGolden(t *testing.T) {
	// -h prints every flag's name, default and help line; the golden
	// pins the flag set. Regenerate with:
	// go test ./cmd/sudcmon -run TestUsageGolden -update
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
