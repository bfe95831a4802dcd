package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sudc/internal/obs"
	"sudc/internal/par"
)

// The engine adapter must keep satisfying the engine's observer hook.
var _ par.Observer = (*obs.EngineMetrics)(nil)

func TestCounterGaugeBasics(t *testing.T) {
	r := obs.New()
	c := r.Counter("frames")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("frames") != c {
		t.Error("same name must return the same counter")
	}
	g := r.Gauge("availability")
	g.Set(0.25)
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Errorf("gauge = %v, want last value 0.75", got)
	}
}

func TestHistogramBucketsAndExtrema(t *testing.T) {
	r := obs.New()
	h := r.Histogram("lat", 1, 10)
	for _, v := range []float64{0.5, 1, 2, 50} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms", len(s.Histograms))
	}
	hv := s.Histograms[0]
	if hv.Count != 4 {
		t.Errorf("count = %d, want 4", hv.Count)
	}
	if hv.Min != 0.5 || hv.Max != 50 {
		t.Errorf("extrema = [%v, %v], want [0.5, 50]", hv.Min, hv.Max)
	}
	// v ≤ 1 → bucket le1 (0.5 and 1), v ≤ 10 → le10 (2), else overflow (50).
	if hv.Buckets[0].N != 2 || hv.Buckets[1].N != 1 || hv.Overflow != 1 {
		t.Errorf("bucket counts = %+v overflow=%d, want [2 1] 1", hv.Buckets, hv.Overflow)
	}
	r.Histogram("never")
	if empty := r.Snapshot().Histograms[1]; empty.Name != "never" || empty.Min != 0 || empty.Max != 0 {
		t.Errorf("empty histogram extrema must read 0, got %+v", empty)
	}
}

func TestSeriesOrderedPoints(t *testing.T) {
	r := obs.New()
	ts := r.Series("queue")
	for i := 0; i < 3; i++ {
		ts.Sample(float64(i*60), float64(i))
	}
	pts := r.Snapshot().Series[0].Points
	if len(pts) != 3 || pts[2] != (obs.Point{T: 120, V: 2}) {
		t.Errorf("points = %+v", pts)
	}
}

func TestScopePrefixesNames(t *testing.T) {
	r := obs.New()
	r.Scope("netsim").Scope("r01").Counter("frames").Add(7)
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Name != "netsim/r01/frames" {
		t.Errorf("scoped counter name: %+v", s.Counters)
	}
	if s.Counters[0].Value != 7 {
		t.Errorf("scoped counter value = %d", s.Counters[0].Value)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *obs.Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h", 1).Observe(2)
	r.Series("s").Sample(0, 0)
	sp := r.StartSpan("span")
	sp.SetSim(3)
	sp.End()
	r.SetTraceWriter(nil)
	if r.Scope("x") != nil {
		t.Error("scoping nil must stay nil")
	}
	if got := r.Snapshot().String(); got != "" {
		t.Errorf("nil registry snapshot = %q, want empty", got)
	}
}

func TestSetGlobalRoundTrips(t *testing.T) {
	prev := obs.Global()
	t.Cleanup(func() { obs.SetGlobal(prev) })
	r := obs.New()
	obs.SetGlobal(r)
	if obs.Global() != r {
		t.Error("Global must return the installed registry")
	}
	obs.SetGlobal(nil)
	if obs.Global() != nil {
		t.Error("SetGlobal(nil) must turn the global registry off")
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	build := func() *obs.Registry {
		r := obs.New()
		// Insertion order differs from name order on purpose.
		r.Counter("z").Add(1)
		r.Counter("a").Add(2)
		r.Gauge("m").Set(3.5)
		r.Histogram("h", 1, 2).Observe(1.5)
		r.Series("t").Sample(1, 2)
		return r
	}
	s1, s2 := build().Snapshot().String(), build().Snapshot().String()
	if s1 != s2 {
		t.Errorf("snapshots differ:\n%s\nvs\n%s", s1, s2)
	}
	if !strings.Contains(s1, "counter a 2\ncounter z 1\n") {
		t.Errorf("counters not name-sorted:\n%s", s1)
	}
	for _, want := range []string{"gauge m 3.5", "histogram h count=1", "le1=0 le2=1 le+Inf=0", "series t n=1: 1:2"} {
		if !strings.Contains(s1, want) {
			t.Errorf("snapshot missing %q:\n%s", want, s1)
		}
	}
}

func TestSnapshotJSONRoundTrips(t *testing.T) {
	r := obs.New()
	r.Counter("c").Add(3)
	r.Histogram("h", 1).Observe(9) // overflow bucket: +Inf must not leak into JSON
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Counters) != 1 || back.Counters[0].Value != 3 {
		t.Errorf("JSON round trip lost counters: %+v", back)
	}
	if len(back.Histograms) != 1 || back.Histograms[0].Overflow != 1 {
		t.Errorf("JSON round trip lost overflow: %+v", back.Histograms)
	}
}

func TestSpansAggregateAndTrace(t *testing.T) {
	r := obs.New()
	var trace strings.Builder
	r.SetTraceWriter(&trace)
	for i := 0; i < 3; i++ {
		sp := r.StartSpan("netsim/run")
		sp.SetSim(7200)
		sp.End()
	}
	s := r.Snapshot()
	if len(s.Spans) != 1 || s.Spans[0].Count != 3 || s.Spans[0].SimS != 3*7200 {
		t.Errorf("span aggregate = %+v", s.Spans)
	}
	if s.Spans[0].WallMS != 0 {
		t.Error("wall time must be excluded without WithWall")
	}
	if got := strings.Count(trace.String(), "trace netsim/run"); got != 3 {
		t.Errorf("trace lines = %d, want 3:\n%s", got, trace.String())
	}
	wall := r.Snapshot(obs.WithWall())
	if wall.Spans[0].WallMS < 0 {
		t.Errorf("wall_ms negative: %+v", wall.Spans)
	}
	if !strings.Contains(r.Snapshot().String(), "span netsim/run count=3 sim_s=21600\n") {
		t.Errorf("span text rendering:\n%s", r.Snapshot().String())
	}
}

func TestConcurrentUseIsSafe(t *testing.T) {
	r := obs.New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scope := r.Scope(fmt.Sprintf("w%d", w))
			for i := 0; i < 500; i++ {
				r.Counter("shared").Inc()
				scope.Counter("own").Inc()
				r.Histogram("h", 1, 10).Observe(float64(i % 20))
				scope.Series("s").Sample(float64(i), 1)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8*500 {
		t.Errorf("shared counter = %d, want %d", got, 8*500)
	}
	if hs := r.Snapshot().Histograms; len(hs) != 1 || hs[0].Count != 8*500 {
		t.Errorf("histograms = %+v, want one with count %d", hs, 8*500)
	}
}

func TestEngineMetricsRecordsRuns(t *testing.T) {
	reg := obs.New()
	m := obs.NewEngineMetrics(reg.Scope("par"))
	m.RunStarted(100, 4)
	m.ItemsDone(60)
	m.ItemsDone(40)
	m.RunFinished(100, 4, 5*time.Millisecond)
	s := reg.Snapshot(obs.WithWall())
	find := func(name string) int64 {
		for _, c := range s.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		t.Fatalf("counter %s missing in %+v", name, s.Counters)
		return 0
	}
	if find("par/runs") != 1 || find("par/items") != 100 {
		t.Errorf("engine counters wrong: %+v", s.Counters)
	}
	if len(s.Spans) != 1 || s.Spans[0].Name != "par/run" || s.Spans[0].WallMS < 5 {
		t.Errorf("engine span wrong: %+v", s.Spans)
	}
	// A nil-registry observer must be callable (CLI metrics off).
	var off *obs.EngineMetrics
	off.RunStarted(1, 1)
	off.ItemsDone(1)
	off.RunFinished(1, 1, 0)
	obs.NewEngineMetrics(nil).RunFinished(1, 1, 0)
}

func TestStartPprofServes(t *testing.T) {
	reg := obs.New()
	reg.Counter("frames_total").Add(3)
	addr, stop, err := obs.StartPprof("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "frames_total 3") {
		t.Errorf("/metrics missing counter, got:\n%s", body)
	}
	// stop closes the listener: the address refuses connections after.
	stop()
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Errorf("%s still accepts connections after stop", addr)
	}

	// A nil registry still serves an (empty) exposition.
	addr, stop, err = obs.StartPprof("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("nil-registry /metrics status = %d", resp.StatusCode)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := obs.New()
	h := r.Histogram("lat", 1, 2, 4)
	// 4 observations in (0,1], 4 in (1,2], 2 in the overflow bucket.
	for _, v := range []float64{0.2, 0.4, 0.6, 0.8, 1.2, 1.4, 1.6, 1.8, 5, 9} {
		h.Observe(v)
	}
	for _, tc := range []struct {
		q, want float64
	}{
		// Linear interpolation inside each bucket; edges clamp to the
		// observed min/max (0.2 and 9), and the overflow bucket
		// interpolates over [4, max].
		{0.0, 0.2},
		{0.2, 0.2 + 0.5*(1-0.2)},
		{0.4, 1},
		{0.5, 1.25},
		{0.8, 2},
		{0.9, 4 + 0.5*(9-4)},
		{1.0, 9},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := r.Histogram("empty").Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile = %v, want 0", got)
	}
	// A single observation pins every quantile.
	one := r.Histogram("one", 10)
	one.Observe(3)
	if got := one.Quantile(0.99); got != 3 {
		t.Errorf("single-observation Quantile = %v, want 3", got)
	}
}

func TestSnapshotCarriesQuantiles(t *testing.T) {
	r := obs.New()
	h := r.Histogram("lat", 1, 2)
	for _, v := range []float64{0.5, 1.5, 1.5, 1.8} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(s.Histograms))
	}
	hv := s.Histograms[0]
	if hv.P50 != h.Quantile(0.50) || hv.P95 != h.Quantile(0.95) || hv.P99 != h.Quantile(0.99) {
		t.Errorf("snapshot quantiles %v/%v/%v disagree with Quantile", hv.P50, hv.P95, hv.P99)
	}
	if !strings.Contains(s.String(), "p50=") || !strings.Contains(s.String(), "p99=") {
		t.Errorf("snapshot text missing quantiles:\n%s", s.String())
	}
}

func TestSeriesUnboundedByDefault(t *testing.T) {
	r := obs.New()
	s := r.Series("q")
	for i := 0; i < 10000; i++ {
		s.Sample(float64(i), float64(i))
	}
	if got := len(r.Snapshot().Series[0].Points); got != 10000 {
		t.Errorf("unbounded series kept %d points, want 10000", got)
	}
}
