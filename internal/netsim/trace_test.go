package netsim

import (
	"reflect"
	"testing"
	"time"

	"sudc/internal/constellation"
	"sudc/internal/faults"
	"sudc/internal/obs/trace"
)

// tracedConfig is a fault-heavy scenario exercising every lifecycle
// path: retries, losses, shedding, node deaths, and SEFI hangs.
func tracedConfig(t *testing.T) Config {
	t.Helper()
	c := DefaultConfig(mustApp(t, "Flood Detection"))
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
	return c
}

func TestTraceDoesNotPerturbSimulation(t *testing.T) {
	c := tracedConfig(t)
	plain, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Trace = trace.New(0)
	traced, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("attaching the recorder changed the stats:\nplain  %+v\ntraced %+v", plain, traced)
	}
}

func TestTraceLifecycleCountsMatchStats(t *testing.T) {
	c := tracedConfig(t)
	rec := trace.New(0)
	c.Trace = rec
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[trace.Kind]int{}
	perFrameComputeEnd, stranded := 0, 0
	for _, e := range rec.Events() {
		counts[e.Kind]++
		if e.Kind == trace.ComputeEnd && e.Frame != 0 {
			perFrameComputeEnd++
		}
		if e.Kind == trace.Enqueued && e.Cause != "" {
			stranded++
		}
	}
	if counts[trace.FrameCaptured] != s.FramesGenerated {
		t.Errorf("captured events %d, stats generated %d", counts[trace.FrameCaptured], s.FramesGenerated)
	}
	if perFrameComputeEnd != s.FramesProcessed {
		t.Errorf("per-frame compute ends %d, stats processed %d", perFrameComputeEnd, s.FramesProcessed)
	}
	if counts[trace.Downlinked] != s.InsightsDownlinked {
		t.Errorf("downlink events %d, stats %d", counts[trace.Downlinked], s.InsightsDownlinked)
	}
	if counts[trace.Shed] != s.FramesShed {
		t.Errorf("shed events %d, stats %d", counts[trace.Shed], s.FramesShed)
	}
	if counts[trace.Lost] != s.FramesLost {
		t.Errorf("lost events %d, stats %d", counts[trace.Lost], s.FramesLost)
	}
	if counts[trace.Retry] != s.FramesRetried {
		t.Errorf("retry events %d, stats retried %d", counts[trace.Retry], s.FramesRetried)
	}
	if stranded != s.FramesRedispatched {
		t.Errorf("re-enqueued events %d, stats redispatched %d", stranded, s.FramesRedispatched)
	}
	if counts[trace.OutageStart] == 0 || counts[trace.NodeDeath] == 0 || counts[trace.SEFIStart] == 0 {
		t.Errorf("fault-heavy run missing fault events: %v", counts)
	}
	if counts[trace.SEFIStart] != counts[trace.SEFIEnd] {
		t.Errorf("SEFI starts %d != ends %d", counts[trace.SEFIStart], counts[trace.SEFIEnd])
	}
}

func TestTraceEventInvariants(t *testing.T) {
	c := tracedConfig(t)
	rec := trace.New(0)
	c.Trace = rec
	if _, err := Run(c); err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	var lastT float64
	seen := map[int64]bool{}
	firstKind := map[int64]trace.Kind{}
	var maxID int64
	for i, e := range events {
		if e.T < lastT {
			t.Fatalf("event %d goes back in time: %.6f after %.6f", i, e.T, lastT)
		}
		lastT = e.T
		if e.Frame == 0 {
			continue
		}
		if !seen[e.Frame] {
			seen[e.Frame] = true
			firstKind[e.Frame] = e.Kind
		}
		if e.Frame > maxID {
			maxID = e.Frame
		}
	}
	if len(seen) == 0 {
		t.Fatal("no frame events recorded")
	}
	// Frame IDs are 1-based, dense, and assigned in capture order.
	if int(maxID) != len(seen) {
		t.Errorf("frame IDs not dense: max %d over %d frames", maxID, len(seen))
	}
	for id, k := range firstKind {
		if k != trace.FrameCaptured {
			t.Errorf("frame %d: first event %v, want frame_captured", id, k)
		}
	}
}

func TestRunReplicasScopesTracePerReplica(t *testing.T) {
	c := tracedConfig(t)
	c.Duration = 20 * time.Minute
	rec := trace.New(0)
	c.Trace = rec
	if _, err := RunReplicas(c, 3, 2); err != nil {
		t.Fatal(err)
	}
	if got := rec.Scopes(); !reflect.DeepEqual(got, []string{"r000", "r001", "r002"}) {
		t.Fatalf("replica scopes = %v", got)
	}
	if rec.Len() != 0 {
		t.Errorf("root scope must stay empty under RunReplicas, has %d events", rec.Len())
	}
	for _, s := range rec.Scopes() {
		if rec.Child(s).Len() == 0 {
			t.Errorf("replica scope %s recorded nothing", s)
		}
	}
}
