package latency_test

import (
	"math"
	"testing"
	"time"

	"sudc/internal/constellation"
	"sudc/internal/faults"
	"sudc/internal/netsim"
	"sudc/internal/obs/latency"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/trace/tracetest"
	"sudc/internal/workload"
)

// faultedRun executes a fault-heavy DES scenario with the flight
// recorder attached and returns the recording plus the run's stats.
func faultedRun(t *testing.T) (*trace.Recorder, netsim.Stats, netsim.Config) {
	t.Helper()
	c := netsim.DefaultConfig(workload.Suite[0])
	c.Constellation = constellation.Constellation{Satellites: 2, FramesPerMinute: 6}
	c.Workers = 5
	c.NeedWorkers = 4
	c.BatchSize = 4
	c.BatchTimeout = 30 * time.Second
	c.Duration = time.Hour
	c.Faults = faults.Scenario{
		NodeMTTF:          2 * time.Hour,
		SEFIMTBE:          20 * time.Minute,
		SEFIRecovery:      30 * time.Second,
		ISLOutageMTBF:     30 * time.Minute,
		ISLOutageDuration: time.Minute,
	}
	c.Seed = 9
	c.RetryLimit = 3
	c.ShedThreshold = 40
	rec := trace.New(0)
	c.Trace = rec
	s, err := netsim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return rec, s, c
}

func TestDecompositionSumsToEndToEnd(t *testing.T) {
	rec, s, _ := faultedRun(t)
	frames := latency.DecomposeAll(rec)
	if len(frames) == 0 {
		t.Fatal("no frames decomposed")
	}
	if len(frames) != s.FramesGenerated {
		t.Errorf("decomposed %d frames, stats generated %d", len(frames), s.FramesGenerated)
	}
	for _, f := range frames {
		if d := math.Abs(f.SumStages() - f.Total()); d > 1e-9 {
			t.Errorf("frame %d: stage sum %.12f != total %.12f (|Δ|=%.3g)",
				f.ID, f.SumStages(), f.Total(), d)
		}
		for st, v := range f.Stages {
			if v < 0 {
				t.Errorf("frame %d: negative %v stage %.12f", f.ID, latency.Stage(st), v)
			}
		}
	}
}

func TestOutcomesMatchStats(t *testing.T) {
	rec, s, _ := faultedRun(t)
	frames := latency.DecomposeAll(rec)
	counts := map[string]int{}
	for _, f := range frames {
		counts[f.Outcome]++
	}
	if got := counts["processed"] + counts["downlinked"]; got != s.FramesProcessed {
		t.Errorf("completed frames %d, stats processed %d", got, s.FramesProcessed)
	}
	if counts["downlinked"] != s.InsightsDownlinked {
		t.Errorf("downlinked frames %d, stats %d", counts["downlinked"], s.InsightsDownlinked)
	}
	if counts["shed"] != s.FramesShed {
		t.Errorf("shed frames %d, stats %d", counts["shed"], s.FramesShed)
	}
	if counts["lost"] != s.FramesLost {
		t.Errorf("lost frames %d, stats %d", counts["lost"], s.FramesLost)
	}
}

func TestAvailabilityFromTraceMatchesDES(t *testing.T) {
	rec, s, c := faultedRun(t)
	got := latency.AvailabilityFromTrace(rec.Events(), c.Workers, c.NeedWorkers,
		c.Duration.Seconds())
	if math.Abs(got-s.Availability) > 1e-9 {
		t.Errorf("availability from trace %.12f, DES reported %.12f", got, s.Availability)
	}
	if !math.IsNaN(latency.AvailabilityFromTrace(nil, 0, 1, 100)) {
		t.Error("zero workers must yield NaN")
	}
	if !math.IsNaN(latency.AvailabilityFromTrace(nil, 4, 4, 0)) {
		t.Error("zero horizon must yield NaN")
	}
	if a := latency.AvailabilityFromTrace(nil, 4, 4, 100); a != 1 {
		t.Errorf("fault-free trace availability = %v, want 1", a)
	}
}

func TestDegradedIntervalsReconstructed(t *testing.T) {
	rec, s, c := faultedRun(t)
	ivs := latency.DegradedIntervals(rec.Events(), c.Duration.Seconds())
	if len(ivs) == 0 {
		t.Fatal("fault-heavy run produced no degraded intervals")
	}
	kinds := map[string]int{}
	var downtime float64
	for i, iv := range ivs {
		kinds[iv.Kind]++
		if iv.Duration() < 0 {
			t.Errorf("interval %d has negative duration: %+v", i, iv)
		}
		if i > 0 && iv.Start < ivs[i-1].Start {
			t.Error("intervals must be sorted by start time")
		}
		if iv.Kind == "isl-outage" {
			downtime += iv.Duration()
		}
	}
	if kinds["isl-outage"] == 0 || kinds["sefi"] == 0 || kinds["node-death"] == 0 {
		t.Errorf("expected all three fault kinds, got %v", kinds)
	}
	if des := s.ISLDowntime.Seconds(); math.Abs(downtime-des) > 1e-6 {
		t.Errorf("summed outage intervals %.6fs, DES ISL downtime %.6fs", downtime, des)
	}
}

func TestTopKDeterministicOrder(t *testing.T) {
	rec, _, _ := faultedRun(t)
	frames := latency.DecomposeAll(rec)
	top := latency.TopK(frames, 10)
	if len(top) != 10 {
		t.Fatalf("TopK returned %d frames", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Total() > top[i-1].Total() {
			t.Error("TopK must be sorted by descending total latency")
		}
	}
	if got := latency.TopK(frames, -1); len(got) != 0 {
		t.Error("negative k must yield no frames")
	}
	if got := latency.TopK(frames[:3], 10); len(got) != 3 {
		t.Error("k beyond the set must clamp")
	}
}

func TestSummarizeSharesAndPercentiles(t *testing.T) {
	rec, _, _ := faultedRun(t)
	sums := latency.Summarize(latency.DecomposeAll(rec))
	if len(sums) != int(latency.NumStages)+1 {
		t.Fatalf("Summarize returned %d rows", len(sums))
	}
	var share float64
	for _, sm := range sums[:latency.NumStages] {
		share += sm.Share
		if sm.P50 > sm.P95 || sm.P95 > sm.P99 || sm.P99 > sm.Max {
			t.Errorf("%v: percentiles not monotone: %+v", sm.Stage, sm)
		}
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("stage shares sum to %.12f, want 1", share)
	}
	e2e := sums[latency.NumStages]
	if e2e.Share != 1 {
		t.Errorf("end-to-end share = %v, want 1", e2e.Share)
	}
}

func TestQuantileTable(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	} {
		if got := latency.Quantile(sorted, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(latency.Quantile(nil, 0.5)) {
		t.Error("empty sample must yield NaN")
	}
	if !math.IsNaN(latency.Quantile(sorted, -0.1)) || !math.IsNaN(latency.Quantile(sorted, 1.1)) {
		t.Error("q outside [0,1] must yield NaN")
	}
}

func TestCausesAttributed(t *testing.T) {
	rec, _, _ := faultedRun(t)
	frames := latency.DecomposeAll(rec)
	var tagged int
	for _, f := range frames {
		for i, c := range f.Causes {
			if c == "" {
				t.Errorf("frame %d: empty cause", f.ID)
			}
			if i > 0 && f.Causes[i] <= f.Causes[i-1] {
				t.Errorf("frame %d: causes not sorted/distinct: %v", f.ID, f.Causes)
			}
		}
		tagged += len(f.Causes)
	}
	if tagged == 0 {
		t.Error("fault-heavy run attributed no causes to any frame")
	}
}

func TestFormatCauses(t *testing.T) {
	if got := latency.FormatCauses(nil); got != "-" {
		t.Errorf("FormatCauses(nil) = %q", got)
	}
	if got := latency.FormatCauses([]string{"a", "b"}); got != "a,b" {
		t.Errorf("FormatCauses = %q", got)
	}
}

// TestFrameEventsAreIndependent pins the carved timelines: frames share
// one backing array, but appending to one frame's Events must never
// write into its neighbour's.
func TestFrameEventsAreIndependent(t *testing.T) {
	frames := latency.Decompose([]trace.Event{
		{T: 0, Kind: trace.FrameCaptured, Frame: 1, Node: 0},
		{T: 0, Kind: trace.FrameCaptured, Frame: 2, Node: 0},
		{T: 1, Kind: trace.Shed, Frame: 1, Node: -1},
		{T: 2, Kind: trace.Shed, Frame: 2, Node: -1},
	})
	if len(frames) != 2 || len(frames[0].Events) != 2 || len(frames[1].Events) != 2 {
		t.Fatalf("want 2 frames of 2 events, got %+v", frames)
	}
	want := append([]trace.Event(nil), frames[1].Events...)
	grown := append(frames[0].Events, trace.Event{T: 99, Kind: trace.Lost, Frame: 1, Node: -1})
	if len(grown) != 3 || grown[2].T != 99 {
		t.Fatalf("append to frame 1 lost the event: %+v", grown)
	}
	for i, e := range frames[1].Events {
		if e != want[i] {
			t.Fatalf("appending to frame 1 rewrote frame 2's event %d: %+v", i, e)
		}
	}
}

func BenchmarkDecomposeAll(b *testing.B) {
	rec := tracetest.Reference(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(latency.DecomposeAll(rec)) == 0 {
			b.Fatal("reference recording decomposed to no frames")
		}
	}
}

func TestDecomposeNilAndEmpty(t *testing.T) {
	if latency.DecomposeAll(nil) != nil {
		t.Error("nil recorder must decompose to nil")
	}
	if got := latency.Decompose(nil); len(got) != 0 {
		t.Errorf("no events must decompose to no frames, got %d", len(got))
	}
}
