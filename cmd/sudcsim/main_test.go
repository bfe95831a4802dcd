package main

import (
	"errors"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sudc/internal/obs/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/usage.golden")

func runSim(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return b.String()
}

func TestDefaultSimulation(t *testing.T) {
	out := runSim(t, "-hours", "0.5")
	for _, want := range []string{
		"Flood Detection", "frames generated", "worker utilization", "keeps up",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestUndersizedReported(t *testing.T) {
	out := runSim(t, "-app", "Panoptic Segmentation", "-hours", "1")
	if !strings.Contains(out, "UNDERSIZED") {
		t.Errorf("overloaded sim must report undersized:\n%s", out)
	}
}

func TestFilteringHelps(t *testing.T) {
	out := runSim(t, "-app", "Panoptic Segmentation", "-hours", "1", "-filter", "0.8")
	if !strings.Contains(out, "keeps up") {
		t.Errorf("80%% filtering should make panoptic sustainable:\n%s", out)
	}
}

func TestUnknownApp(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-app", "Whale Counting"}, &b); err == nil {
		t.Error("unknown app must error")
	}
}

func TestBadConfig(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-satellites", "0"}, &b); err == nil {
		t.Error("zero satellites must error")
	}
	if err := run([]string{"-isl", "0"}, &b); err == nil {
		t.Error("zero ISL must error")
	}
}

func TestTinyPowerStillRuns(t *testing.T) {
	out := runSim(t, "-power", "0.05", "-hours", "0.2")
	if !strings.Contains(out, "1 ×") {
		t.Errorf("sub-worker budget must clamp to one worker:\n%s", out)
	}
}

func TestFaultFlagsReportFaultBlock(t *testing.T) {
	out := runSim(t, "-app", "Air Pollution", "-satellites", "2", "-hours", "1",
		"-mttf", "2", "-sefi", "20", "-outage", "30", "-spares", "2")
	for _, want := range []string{
		"fault injection", "availability", "degraded time",
		"frames retried", "frames re-dispatched", "2 spare workers",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fault output missing %q:\n%s", want, out)
		}
	}
}

func TestFaultFreeRunOmitsFaultBlock(t *testing.T) {
	out := runSim(t, "-hours", "0.5")
	if strings.Contains(out, "fault injection") {
		t.Errorf("fault-free run must not print the fault block:\n%s", out)
	}
}

func TestMetricsFlagPrintsFaultedTimeSeries(t *testing.T) {
	out := runSim(t, "-app", "Air Pollution", "-satellites", "2", "-hours", "1",
		"-outage", "10", "-outage-dur", "60", "-metrics")
	for _, want := range []string{
		"metrics:",
		"series netsim/queue/depth",
		"series netsim/availability",
		"series netsim/retries",
		"counter netsim/frames/generated",
		"counter netsim/events/outage_start",
		"histogram netsim/latency_s",
		"histogram netsim/retry/backoff_s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsOffByDefault(t *testing.T) {
	out := runSim(t, "-hours", "0.2")
	if strings.Contains(out, "metrics:") {
		t.Error("metrics must be opt-in")
	}
}

func TestTraceFlagStreamsSpans(t *testing.T) {
	out := runSim(t, "-hours", "0.2", "-trace")
	if !strings.Contains(out, "trace sudcsim/run wall=") || !strings.Contains(out, "sim=720s") {
		t.Errorf("-trace must stream the run span with simulated time:\n%s", out)
	}
}

func TestShedAllFlag(t *testing.T) {
	out := runSim(t, "-app", "Panoptic Segmentation", "-hours", "0.5", "-shed", "-1", "-metrics")
	if !strings.Contains(out, "counter netsim/frames/processed 0\n") {
		t.Errorf("-shed -1 must starve the workers:\n%s", out)
	}
	var b strings.Builder
	if err := run([]string{"-shed", "-2"}, &b); err == nil {
		t.Error("shed threshold below ShedAll must error")
	}
}

func TestTraceOutWritesLineage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	out := runSim(t, "-satellites", "2", "-hours", "0.5", "-outage", "10", "-trace-out", path)
	if !strings.Contains(out, "trace: wrote") || !strings.Contains(out, path) {
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
	kinds := map[trace.Kind]bool{}
	for _, e := range rec.Events() {
		kinds[e.Kind] = true
	}
	for _, want := range []trace.Kind{trace.FrameCaptured, trace.Dispatched,
		trace.Downlinked, trace.OutageStart, trace.SpanDone} {
		if !kinds[want] {
			t.Errorf("trace missing %v events", want)
		}
	}
	if err := run([]string{"-hours", "0.1", "-trace-out", "/no/such/dir/t.jsonl"}, &strings.Builder{}); err == nil {
		t.Error("unwritable trace path must error")
	}
}

func TestPprofFlag(t *testing.T) {
	out := runSim(t, "-hours", "0.2", "-pprof", "127.0.0.1:0")
	const prefix = "pprof: serving on http://"
	i := strings.Index(out, prefix)
	if i < 0 {
		t.Fatalf("-pprof must report the bound address:\n%s", out)
	}
	addr, _, _ := strings.Cut(out[i+len(prefix):], "/")
	// The server stops with the run: the printed address is closed.
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Errorf("pprof server on %s outlived run", addr)
	}
	var b strings.Builder
	if err := run([]string{"-pprof", "not-an-address"}, &b); err == nil {
		t.Error("unbindable pprof address must error")
	}
}

func TestBadFaultFlags(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-spares", "-1"}, &b); err == nil {
		t.Error("negative spares must error")
	}
	if err := run([]string{"-mttf", "-2"}, &b); err == nil {
		t.Error("negative MTTF must error")
	}
	if err := run([]string{"-sefi", "10", "-sefi-rec", "0"}, &b); err == nil {
		t.Error("SEFI without recovery must error")
	}
	if err := run([]string{"-retries", "-1"}, &b); err == nil {
		t.Error("negative retries must error")
	}
}

func TestThrottleFlagReportsDegradationBlock(t *testing.T) {
	out := runSim(t, "-satellites", "2", "-hours", "4", "-throttle", "1")
	for _, want := range []string{
		"degradation (xing-cots, severity 1.00)",
		"mean rate mult", "throttled time", "brownout time", "batches deferred",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("degradation output missing %q:\n%s", want, out)
		}
	}
}

func TestThrottleOffOmitsDegradationBlock(t *testing.T) {
	out := runSim(t, "-hours", "0.5")
	if strings.Contains(out, "degradation (") {
		t.Errorf("degradation block must be opt-in:\n%s", out)
	}
}

func TestCalibrationFlag(t *testing.T) {
	out := runSim(t, "-satellites", "2", "-hours", "4", "-throttle", "0.5", "-cots", "integrated-panel", "-eclipse-frac", "0.5")
	if !strings.Contains(out, "degradation (integrated-panel, severity 0.50)") {
		t.Errorf("calibration name missing:\n%s", out)
	}
	var b strings.Builder
	if err := run([]string{"-throttle", "1", "-cots", "unobtainium"}, &b); err == nil {
		t.Error("unknown calibration must error")
	}
	if err := run([]string{"-throttle", "2"}, &b); err == nil {
		t.Error("severity above 1 must error")
	}
	if err := run([]string{"-throttle", "-1"}, &b); err == nil {
		t.Error("negative severity must error")
	}
	if err := run([]string{"-placement", "greedy", "-downlink-gbps", "-1"}, &b); err == nil {
		t.Error("negative downlink rate must error")
	}
}

func TestNegativeShardsRejected(t *testing.T) {
	// The star and the Walker graph reject a negative shard count alike.
	for _, args := range [][]string{
		{"-shards", "-1"},
		{"-planes", "2", "-sats-per-plane", "4", "-shards", "-3"},
	} {
		var b strings.Builder
		if err := run(args, &b); err == nil || !strings.Contains(err.Error(), "shard") {
			t.Errorf("%v: err = %v, want a negative shard count error", args, err)
		}
	}
}

func TestHorizonYearsRunsSurvivability(t *testing.T) {
	out := runSim(t, "-horizon-years", "6", "-throttle", "0.8")
	for _, want := range []string{
		"survivability: 6-year program",
		"capacity factor", "units built", "capacity avail",
		"year  mean operational",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("survivability output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "frames generated") {
		t.Error("survivability mode must not run the DES")
	}
}

func TestHorizonYearsHeaderKeepsFraction(t *testing.T) {
	// The header prints the horizon as given: a 2.5-year run (130 weekly
	// steps) is not a "2-year program", nor 0.005 years a "0-year" one.
	for _, c := range []struct{ years, want string }{
		{"2.5", "survivability: 2.5-year program,"},
		{"0.005", "survivability: 0.005-year program,"},
	} {
		if out := runSim(t, "-horizon-years", c.years); !strings.Contains(out, c.want) {
			t.Errorf("-horizon-years %s: output missing %q:\n%s", c.years, c.want, out)
		}
	}
}

func TestHorizonYearsFinishesObservability(t *testing.T) {
	// The survivability program returns before the DES; -metrics and
	// -trace-out must still print the snapshot and write the file.
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	out := runSim(t, "-horizon-years", "1", "-metrics", "-trace-out", path)
	for _, want := range []string{"\nmetrics:\n", "counter par/runs", "\ntrace: wrote"} {
		if !strings.Contains(out, want) {
			t.Errorf("survivability output missing %q:\n%s", want, out)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := trace.DecodeJSONL(f); err != nil {
		t.Fatalf("written trace does not decode: %v", err)
	}
}

func TestPlacementFlag(t *testing.T) {
	out := runSim(t, "-hours", "0.5", "-placement", "static-space")
	for _, want := range []string{
		"placement (static-space policy", "tier", "onboard", "ground-edge",
		"realized mean cost", "oracle floor",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("placement output missing %q:\n%s", want, out)
		}
	}
}

func TestPlacementFlagOverrides(t *testing.T) {
	out := runSim(t, "-hours", "0.5", "-placement", "greedy",
		"-downlink-gbps", "2.5", "-edge-servers", "3", "-latency-weight", "1e-3",
		"-place-compress", "neural")
	if !strings.Contains(out, "downlink 2.5 Gbit/s") {
		t.Errorf("downlink override not reflected:\n%s", out)
	}
}

func TestPlacementBadPolicy(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-placement", "static-moon"}, &b); err == nil {
		t.Error("unknown placement policy must error")
	}
	if err := run([]string{"-placement", "greedy", "-place-compress", "zstd"}, &b); err == nil {
		t.Error("unknown compression must error")
	}
}

func TestPlacementOffByDefault(t *testing.T) {
	out := runSim(t, "-hours", "0.5")
	if strings.Contains(out, "placement (") {
		t.Errorf("placement block printed without -placement:\n%s", out)
	}
}

func TestShardStatsFlagPrintsSyncSummary(t *testing.T) {
	args := []string{"-planes", "2", "-sats-per-plane", "4", "-hours", "0.5", "-shards", "2"}
	out := runSim(t, append(args, "-shard-stats")...)
	for _, want := range []string{
		"sync:", "windows", "active cells/window", "msgs/window", "mean lookahead",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-shard-stats output missing %q:\n%s", want, out)
		}
	}
	if out := runSim(t, args...); strings.Contains(out, "sync:") {
		t.Errorf("sync summary must be opt-in:\n%s", out)
	}
	// The flag is topology-only: a star-mode run stays silent.
	if out := runSim(t, "-hours", "0.5", "-shard-stats"); strings.Contains(out, "sync:") {
		t.Errorf("star-mode run must not print the sync summary:\n%s", out)
	}
}

func TestSLOFlagPrintsWindowedReport(t *testing.T) {
	out := runSim(t, "-satellites", "2", "-power", "0.5", "-hours", "2",
		"-mttf", "2", "-sefi", "20", "-outage", "15", "-throttle", "1",
		"-shed", "40", "-seed", "7", "-slo", "-watch")
	for _, want := range []string{
		"SLO report:", "burn policy", "burn-rate alerts:", "cause", "attainment:",
		"w000 [", // live -watch line
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The live window lines precede the run summary: the first -watch
	// line must appear before the "frames generated" block.
	if strings.Index(out, "w000 [") > strings.Index(out, "frames generated") {
		t.Errorf("-watch lines must stream before the summary:\n%s", out)
	}
}

func TestWindowFlagAloneIsQuiet(t *testing.T) {
	// -window without -slo/-watch collects windows but prints nothing new.
	out := runSim(t, "-satellites", "2", "-hours", "0.5", "-window", "10")
	for _, banned := range []string{"SLO report", "w000"} {
		if strings.Contains(out, banned) {
			t.Errorf("bare -window must not print %q:\n%s", banned, out)
		}
	}
}

func TestNegativeWindowRejected(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-slo", "-window", "-5"}, &b); err == nil {
		t.Error("negative window width must error")
	}
}

func TestTooManyWindowsRejected(t *testing.T) {
	// 4.8 ms windows cut 6 simulated minutes into 75,000 windows, above
	// window.MaxWindows; the run is refused before it allocates them.
	var b strings.Builder
	err := run([]string{"-window", "8e-5", "-satellites", "2", "-hours", "0.1"}, &b)
	if err == nil || !strings.Contains(err.Error(), "windows") {
		t.Errorf("-window 8e-5 over 0.1 h = %v, want a window-count error", err)
	}
}

func TestUsageGolden(t *testing.T) {
	// -h prints every flag's name, default and help line; the golden
	// pins the flag set. Regenerate with:
	// go test ./cmd/sudcsim -run TestUsageGolden -update
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
