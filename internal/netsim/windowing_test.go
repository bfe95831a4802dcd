package netsim

// Tests for the windowed-telemetry wiring: the merged window stream
// must reconcile with end-of-run Stats, the trace-derived
// reconstruction (slo.WindowsFromTrace) must agree with the native
// stream, and SLO burn-rate alerts must land in the trace with a
// non-empty attributed cause.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"sudc/internal/degrade"
	"sudc/internal/faults"
	"sudc/internal/obs"
	"sudc/internal/obs/latency"
	"sudc/internal/obs/slo"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
	"sudc/internal/topo"
	"sudc/internal/workload"
)

// windowConfig is the shared degraded+faulted two-satellite star with
// 10-minute windows: two eclipse crossings, node deaths, SEFIs, ISL
// outages, retries, and shedding all active.
func windowConfig() Config {
	c := degradeBase()
	c.Faults = degradeFaults
	c.RetryLimit = 3
	c.ShedThreshold = 40
	p := degrade.COTSProfile(1)
	c.Degrade = &p
	c.Window = 10 * time.Minute
	return c
}

func TestWindowStreamReconcilesWithStats(t *testing.T) {
	// The brownout run exercises every window counter: it strands
	// batches through brownouts and node deaths, defers a batch, spills
	// frames to onboard, and sheds, loses, and retries frames. All three
	// sinks must agree with Stats on it.
	c := brownoutConfig()
	var wins []window.Window
	c.OnWindow = func(w window.Window) { wins = append(wins, w) }
	reg := obs.New()
	rec := trace.New(0)
	c.Obs = reg
	c.Trace = rec
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) == 0 {
		t.Fatal("windowed run produced no windows")
	}

	width := c.Window.Seconds()
	var total window.Agg
	for i, w := range wins {
		if i > 0 && w.Index <= wins[i-1].Index {
			t.Fatalf("windows out of order: index %d after %d", w.Index, wins[i-1].Index)
		}
		if w.Start != float64(w.Index)*width {
			t.Errorf("w%d start %v, want %v", w.Index, w.Start, float64(w.Index)*width)
		}
		if w.End > c.Duration.Seconds() || w.End <= w.Start {
			t.Errorf("w%d span [%v, %v) escapes the run", w.Index, w.Start, w.End)
		}
		if a := w.Availability(); a < 0 || a > 1 {
			t.Errorf("w%d availability %v outside [0,1]", w.Index, a)
		}
		if w.Sec <= 0 || w.Sec > width {
			t.Errorf("w%d covers %v s, want (0, %v]", w.Index, w.Sec, width)
		}
		for k := range total.Counts {
			total.Counts[k] += w.Counts[k]
		}
		total.LatCount += w.LatCount
		total.EclipseSec += w.EclipseSec
		total.ThrottleSec += w.ThrottleSec
	}

	// Tally the flight recording's per-frame lifecycle events.
	var spilled, computeEnds, stranded int
	for _, e := range rec.Events() {
		switch {
		case e.Kind == trace.Placed && e.Cause == "spill":
			spilled++
		case e.Kind == trace.ComputeEnd && e.Frame != 0:
			computeEnds++
		case e.Kind == trace.Enqueued && e.Cause != "":
			stranded++
		}
	}

	// The window stream partitions the run: per-window counters must sum
	// to the end-of-run stats exactly, and the trace and obs sinks must
	// count the same lifecycle points. Every count must be nonzero, or
	// the check is vacuous.
	histCount := map[string]int64{}
	for _, hv := range reg.Snapshot().Histograms {
		histCount[hv.Name] = hv.Count
	}
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"window generated", total.Counts[window.CntGenerated], int64(s.FramesGenerated)},
		{"window processed", total.Counts[window.CntProcessed], int64(s.FramesProcessed)},
		{"window insights", total.Counts[window.CntInsights], int64(s.InsightsDownlinked)},
		{"window retried", total.Counts[window.CntRetried], int64(s.FramesRetried)},
		{"window redispatched", total.Counts[window.CntRedispatched], int64(s.FramesRedispatched)},
		{"window shed", total.Counts[window.CntShed], int64(s.FramesShed)},
		{"window lost", total.Counts[window.CntLost], int64(s.FramesLost)},
		{"window deferred", total.Counts[window.CntDeferred], int64(s.BatchesDeferred)},
		{"window spilled", total.Counts[window.CntSpilled], int64(spilled)},
		{"window latency samples", total.LatCount, int64(s.FramesProcessed)},
		{"trace per-frame compute_end", int64(computeEnds), int64(s.FramesProcessed)},
		{"trace enqueued with a cause", int64(stranded), int64(s.FramesRedispatched)},
		{"obs latency_s count", histCount["latency_s"], int64(s.FramesProcessed)},
		{"obs retry/backoff_s count", histCount["retry/backoff_s"], int64(s.FramesRetried)},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
		if tc.want == 0 {
			t.Errorf("%s: the run never exercises it", tc.name)
		}
	}
	// A severity-1 COTS profile over the run must show eclipse and
	// throttle occupancy somewhere in the stream.
	if total.EclipseSec == 0 || total.ThrottleSec == 0 {
		t.Errorf("degraded run must accumulate eclipse (%v s) and throttle (%v s) occupancy",
			total.EclipseSec, total.ThrottleSec)
	}

	// The obs series are taken on the same grid: one point per window,
	// at its end. availability, retries and shed are the window's own
	// values, bit for bit.
	snap := reg.Snapshot()
	series := map[string][]obs.Point{}
	for _, sv := range snap.Series {
		series[sv.Name] = sv.Points
		if len(sv.Points) != len(wins) {
			t.Errorf("series %s has %d points, want one per window (%d)", sv.Name, len(sv.Points), len(wins))
			continue
		}
		for i, p := range sv.Points {
			if p.T != wins[i].End {
				t.Errorf("series %s point %d at %v s, want the window end %v s", sv.Name, i, p.T, wins[i].End)
			}
		}
	}
	var upSec, sec float64
	for i, w := range wins {
		for _, tc := range []struct {
			name string
			want float64
		}{
			{"availability", w.Availability()},
			{"retries", float64(w.Counts[window.CntRetried])},
			{"shed", float64(w.Counts[window.CntShed])},
		} {
			if pts := series[tc.name]; i < len(pts) && pts[i].V != tc.want {
				t.Errorf("w%d %s point = %v, want the window's %v", w.Index, tc.name, pts[i].V, tc.want)
			}
		}
		if pts := series["availability"]; i < len(pts) {
			upSec += pts[i].V * w.Sec
			sec += w.Sec
		}
	}
	if mean := upSec / sec; math.Abs(mean-s.Availability) > 1e-12 {
		t.Errorf("Sec-weighted mean of the availability points %v, want Stats.Availability %v", mean, s.Availability)
	}

	// The sinks must not perturb the simulation itself.
	plain := brownoutConfig()
	plain.Window = 0
	ps, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if ps != s {
		t.Error("enabling windows, obs, and trace must not change simulation results")
	}
}

func TestCellSeriesSumToMergedWindows(t *testing.T) {
	// On a multi-cell graph each cell records its own series, taking
	// each point where its collector closes the window: in the cell's
	// event loop or at the runner's cross-cell watermark. Either way a
	// cell's retries and shed points count that cell's share of the
	// window, so across cells they sum to the merged window's counts.
	g, err := topo.Walker(4, 8, 5, 2, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := TopologyConfig(workload.Suite[0], g)
	c.BatchSize = 4
	c.BatchTimeout = 30 * time.Second
	c.Duration = 2 * time.Hour
	c.Seed = 9
	c.Faults = faults.Scenario{
		NodeMTTF:          2 * time.Hour,
		SEFIMTBE:          20 * time.Minute,
		SEFIRecovery:      30 * time.Second,
		ISLOutageMTBF:     30 * time.Minute,
		ISLOutageDuration: time.Minute,
	}
	c.RetryLimit = 3
	c.ShedThreshold = 10
	p := degrade.COTSProfile(1)
	c.Degrade = &p
	c.Window = 10 * time.Minute
	var wins []window.Window
	c.OnWindow = func(w window.Window) { wins = append(wins, w) }
	reg := obs.New()
	c.Obs = reg
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.CrossShardFrames == 0 || s.FramesRetried == 0 || s.FramesShed == 0 {
		t.Fatalf("scenario must cross cells, retry and shed: %+v", s)
	}

	series := map[string][]obs.Point{}
	for _, sv := range reg.Snapshot().Series {
		series[sv.Name] = sv.Points
	}
	for _, k := range []struct {
		cnt  window.Counter
		name string
	}{{window.CntRetried, "retries"}, {window.CntShed, "shed"}} {
		sums := make([]float64, len(wins))
		for cell := 0; cell < g.Cells(); cell++ {
			full := fmt.Sprintf("c%03d/%s", cell, k.name)
			pts := series[full]
			if len(pts) != len(wins) {
				t.Fatalf("series %s has %d points, want one per window (%d)", full, len(pts), len(wins))
			}
			for i, p := range pts {
				if p.T != wins[i].End {
					t.Errorf("%s point %d at %v s, want the window end %v s", full, i, p.T, wins[i].End)
				}
				sums[i] += p.V
			}
		}
		var total int64
		for i, w := range wins {
			if sums[i] != float64(w.Counts[k.cnt]) {
				t.Errorf("w%d: per-cell %s points sum to %v, merged window counts %d", w.Index, k.name, sums[i], w.Counts[k.cnt])
			}
			total += w.Counts[k.cnt]
		}
		if total == 0 {
			t.Errorf("no window counts %s: the check is vacuous", k.name)
		}
	}
}

func TestSingleCellWindowsStayLive(t *testing.T) {
	// A one-cell run delivers each window as the simulation crosses it,
	// not buffered until the end: the first callback must see a
	// recording that is still growing.
	c := windowConfig()
	rec := trace.New(0)
	c.Trace = rec
	first := -1
	c.OnWindow = func(window.Window) {
		if first < 0 {
			first = rec.TotalLen()
		}
	}
	if _, err := Run(c); err != nil {
		t.Fatal(err)
	}
	if first < 0 {
		t.Fatal("windowed run produced no windows")
	}
	if final := rec.TotalLen(); first >= final {
		t.Errorf("first window delivered with %d of %d trace events recorded, want it mid-run", first, final)
	}
}

func TestWindowsFromTraceMatchesNative(t *testing.T) {
	c := windowConfig()
	rec := trace.New(0)
	c.Trace = rec
	var native []window.Window
	c.OnWindow = func(w window.Window) { native = append(native, w) }
	if _, err := Run(c); err != nil {
		t.Fatal(err)
	}

	derived := slo.WindowsFromTrace(rec, c.Window.Seconds(), c.Duration.Seconds(),
		c.Workers, c.NeedWorkers)
	if len(derived) != len(native) {
		t.Fatalf("trace reconstruction has %d windows, native stream %d", len(derived), len(native))
	}
	// Counters, latency buckets, and sample counts are integer-exact
	// between the live stream and the trace replay; occupancy integrals
	// are reconstructions (eclipse ≈ brownout) and are checked loosely.
	for i := range native {
		n, d := native[i], derived[i]
		if d.Index != n.Index {
			t.Fatalf("window %d: derived index %d, native %d", i, d.Index, n.Index)
		}
		if d.Counts != n.Counts {
			t.Errorf("w%d counts differ:\n trace %v\n native %v", n.Index, d.Counts, n.Counts)
		}
		if d.Lat != n.Lat || d.LatCount != n.LatCount {
			t.Errorf("w%d latency histogram differs:\n trace %v (%d)\n native %v (%d)",
				n.Index, d.Lat, d.LatCount, n.Lat, n.LatCount)
		}
		if (n.ThrottleSec > 0) != (d.ThrottleSec > 0) {
			t.Errorf("w%d throttle occupancy: trace %v s, native %v s",
				n.Index, d.ThrottleSec, n.ThrottleSec)
		}
	}
}

// TestWindowsFromTraceMatchesNativeAcrossCells is the native-stream
// check on a sharded Walker: a frame that crosses cells is captured in
// one cell's scope and computed in another's, so its latency needs the
// capture time from a sibling scope.
func TestWindowsFromTraceMatchesNativeAcrossCells(t *testing.T) {
	g, err := topo.Walker(4, 8, 5, 2, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := cellsConfig(g)
	c.Shards = 2
	rec := trace.New(0)
	c.Trace = rec
	var native []window.Window
	c.OnWindow = func(w window.Window) { native = append(native, w) }
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.CrossShardFrames == 0 {
		t.Fatal("no frame crossed cells: the check would be vacuous")
	}
	derived := slo.WindowsFromTrace(rec, c.Window.Seconds(), c.Duration.Seconds(), 0, 0)
	if len(derived) != len(native) {
		t.Fatalf("trace reconstruction has %d windows, native stream %d", len(derived), len(native))
	}
	for i, n := range native {
		d := derived[i]
		if d.Index != n.Index || d.Counts != n.Counts || d.Lat != n.Lat || d.LatCount != n.LatCount {
			t.Errorf("w%d: trace-derived counts or latency differ from the native stream:\n trace %v %v (%d)\n native %v %v (%d)",
				n.Index, d.Counts, d.Lat, d.LatCount, n.Counts, n.Lat, n.LatCount)
		}
	}
}

// TestWindowsFromTraceKeepsReplicasApart pins each frame's capture time
// to its own replica. RunReplicas records every replica in its own
// scope and numbers every replica's frames from the same IDs, so a
// capture time looked up across the whole recording belongs to another
// replica's frame. The trace-derived latency sum must equal the
// per-scope compute end minus capture of DecomposeAll, over the same
// frames.
func TestWindowsFromTraceKeepsReplicasApart(t *testing.T) {
	c := DefaultConfig(workload.Suite[0])
	c.Duration = 10 * time.Minute
	rec := trace.New(0)
	c.Trace = rec
	if _, err := RunReplicas(c, 2, 2); err != nil {
		t.Fatal(err)
	}
	var got float64
	var samples int64
	for _, w := range slo.WindowsFromTrace(rec, time.Minute.Seconds(), c.Duration.Seconds(), c.Workers, c.Workers) {
		got += w.LatSum
		samples += w.LatCount
	}
	var want float64
	var frames int64
	for _, f := range latency.DecomposeAll(rec) {
		for _, e := range f.Events {
			if e.Kind == trace.ComputeEnd {
				want += e.T - f.Captured
				frames++
			}
		}
	}
	if frames == 0 || samples != frames {
		t.Fatalf("window stream holds %d latency samples, the recording %d computed frames", samples, frames)
	}
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("window stream latency sum %.1f s, per-scope truth %.1f s over %d frames (%+.2f%%)",
			got, want, frames, 100*(got-want)/want)
	}
}

func TestSLOAlertsLandInTraceWithCauses(t *testing.T) {
	c := windowConfig()
	rec := trace.New(0)
	c.Trace = rec
	sloCfg := slo.DefaultConfig()
	c.SLO = &sloCfg
	if _, err := Run(c); err != nil {
		t.Fatal(err)
	}

	var alerts []trace.Event
	for _, e := range rec.Events() {
		if e.Kind == trace.SLOAlert {
			alerts = append(alerts, e)
		}
	}
	if len(alerts) == 0 {
		t.Fatal("severity-1 degraded run must fire burn-rate alerts")
	}
	for _, a := range alerts {
		if a.Cause == "" {
			t.Errorf("alert %q at window %d has no attributed cause", a.Name, a.N)
		}
		if a.Name == "" {
			t.Errorf("alert at t=%v carries no objective name", a.T)
		}
		if a.T <= 0 || a.Dur <= 0 {
			t.Errorf("alert %q has degenerate span t=%v dur=%v", a.Name, a.T, a.Dur)
		}
	}
}

func TestWindowConfigValidation(t *testing.T) {
	base := windowConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative window", func(c *Config) { c.Window = -time.Minute }},
		{"OnWindow without window", func(c *Config) {
			c.Window = 0
			c.OnWindow = func(window.Window) {}
		}},
		{"SLO without window", func(c *Config) {
			c.Window = 0
			cfg := slo.DefaultConfig()
			c.SLO = &cfg
		}},
		{"invalid SLO objective", func(c *Config) {
			c.SLO = &slo.Config{Objectives: []slo.Objective{{Kind: slo.Availability, Target: 0.9}}}
		}},
		{"more than MaxWindows windows", func(c *Config) {
			c.Window = time.Second
			c.Duration = window.MaxWindows*time.Second + 1 // the last window partial
		}},
	}
	for _, tc := range cases {
		c := base
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
		}
	}

	// Exactly MaxWindows whole windows are accepted.
	c := base
	c.Window = time.Second
	c.Duration = window.MaxWindows * time.Second
	if err := c.Validate(); err != nil {
		t.Errorf("%d whole windows must validate: %v", window.MaxWindows, err)
	}

	// RunReplicas multiplexes runs and cannot deliver a per-run live
	// window stream.
	c = base
	c.OnWindow = func(window.Window) {}
	if _, err := RunReplicas(c, 2, 1); err == nil {
		t.Error("RunReplicas must reject OnWindow")
	}
}
