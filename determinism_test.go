package sudc

// Determinism contract of the parallel evaluation engine: every sweep,
// Monte-Carlo run, and experiment table must be identical for any worker
// count. The engine (internal/par) guarantees ordering; these tests pin
// the end-to-end property across the whole evaluation.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"sudc/internal/constellation"
	"sudc/internal/degrade"
	"sudc/internal/experiments"
	"sudc/internal/faults"
	"sudc/internal/netsim"
	"sudc/internal/obs"
	"sudc/internal/obs/slo"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
	"sudc/internal/par"
	"sudc/internal/par/partest"
	"sudc/internal/topo"
	"sudc/internal/units"
	"sudc/internal/workload"
)

// renderAll runs every paper exhibit through the parallel runner and
// concatenates the rendered tables.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	tables, err := experiments.RunAll(experiments.All(), workers)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tbl := range tables {
		b.WriteString(tbl.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestExperimentsInvariantUnderWorkerCount(t *testing.T) {
	ref := renderAll(t, 1)
	if ref == "" {
		t.Fatal("no rendered output")
	}
	for _, w := range []int{2, 8} {
		if got := renderAll(t, w); got != ref {
			t.Errorf("workers=%d: rendered experiment output differs from workers=1", w)
		}
	}
}

func TestExtensionsInvariantUnderWorkerCount(t *testing.T) {
	// Extensions exercise the Monte-Carlo paths (maintenance simulation)
	// on top of the analytic sweeps, so they pin the forked-stream
	// discipline as well.
	render := func(workers int) string {
		t.Helper()
		tables, err := experiments.RunAll(experiments.Extensions(), workers)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tbl := range tables {
			b.WriteString(tbl.String())
		}
		return b.String()
	}
	ref := render(1)
	for _, w := range []int{2, 8} {
		if got := render(w); got != ref {
			t.Errorf("workers=%d: rendered extension output differs from workers=1", w)
		}
	}
}

func TestDefaultWorkerOverrideRoundTrips(t *testing.T) {
	partest.WithDefaultWorkers(t, 3)
	if par.DefaultWorkers() != 3 {
		t.Errorf("DefaultWorkers = %d after override, want 3", par.DefaultWorkers())
	}
}

func TestFaultInjectionInvariantUnderWorkerCount(t *testing.T) {
	// Fault schedules fork per-entity RNG streams from the replica seed,
	// so a fault-injected DES sweep must be byte-identical whether its
	// replicas run on 1, 2, or 8 workers.
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
	ref, err := netsim.RunReplicas(c, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		got, err := netsim.RunReplicas(c, 12, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: fault-injected replica stats differ from workers=1", w)
		}
	}
}

func TestDegradedRunInvariantUnderWorkerCount(t *testing.T) {
	// The environment-coupled degradation engine extends the contract:
	// the modulation schedule is compiled once from the config and
	// replayed on the simulated clock, so a throttled, browned-out,
	// fault-injected sweep must stay byte-identical — replica stats and
	// merged metric snapshot — for any worker count. The 2-hour horizon
	// spans a full default-EO orbit, so every replica crosses an
	// eclipse brownout.
	c := netsim.DefaultConfig(workload.Suite[0])
	c.Constellation = constellation.Constellation{Satellites: 2, FramesPerMinute: 6}
	c.Workers = 5
	c.NeedWorkers = 4
	c.BatchSize = 4
	c.BatchTimeout = 30 * time.Second
	c.Duration = 2 * time.Hour
	c.Faults = faults.Scenario{
		NodeMTTF:          2 * time.Hour,
		SEFIMTBE:          20 * time.Minute,
		SEFIRecovery:      30 * time.Second,
		ISLOutageMTBF:     30 * time.Minute,
		ISLOutageDuration: time.Minute,
	}
	c.Seed = 9
	p := degrade.COTSProfile(0.75)
	c.Degrade = &p

	run := func(workers int) ([]netsim.Stats, string) {
		reg := obs.New()
		cc := c
		cc.Obs = reg.Scope("netsim")
		all, err := netsim.RunReplicas(cc, 12, workers)
		if err != nil {
			t.Fatal(err)
		}
		return all, reg.Snapshot().String()
	}
	refStats, refSnap := run(1)
	if refStats[0].ThrottledTime == 0 || refStats[0].BrownoutTime == 0 {
		t.Fatalf("degradation not exercised: %+v", refStats[0])
	}
	if !strings.Contains(refSnap, "netsim/r000/throttle/rate_mult") {
		t.Fatalf("degradation series missing from snapshot:\n%.400s", refSnap)
	}
	for _, w := range []int{2, 8} {
		stats, snap := run(w)
		if !reflect.DeepEqual(refStats, stats) {
			t.Errorf("workers=%d: degraded replica stats differ from workers=1", w)
		}
		if snap != refSnap {
			t.Errorf("workers=%d: degraded metric snapshot differs from workers=1", w)
		}
	}
}

func TestObsSnapshotInvariantUnderWorkerCount(t *testing.T) {
	// The observability stream extends the determinism contract: replica
	// metrics are sampled on the simulated clock and written under
	// per-replica scopes, so the merged default snapshot must be
	// byte-identical for any worker count.
	c := netsim.DefaultConfig(workload.Suite[0])
	c.Constellation = constellation.Constellation{Satellites: 2, FramesPerMinute: 6}
	c.Workers = 5
	c.NeedWorkers = 4
	c.BatchSize = 4
	c.BatchTimeout = 30 * time.Second
	c.Duration = time.Hour
	c.Faults = faults.Scenario{
		NodeMTTF:          2 * time.Hour,
		ISLOutageMTBF:     30 * time.Minute,
		ISLOutageDuration: time.Minute,
	}
	c.Seed = 9
	snap := func(workers int) string {
		reg := obs.New()
		cc := c
		cc.Obs = reg.Scope("netsim")
		if _, err := netsim.RunReplicas(cc, 12, workers); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().String()
	}
	ref := snap(1)
	if !strings.Contains(ref, "netsim/r000/availability") ||
		!strings.Contains(ref, "netsim/r011/availability") {
		t.Fatalf("replica scopes missing from snapshot:\n%s", ref)
	}
	for _, w := range []int{2, 8} {
		if got := snap(w); got != ref {
			t.Errorf("workers=%d: merged metric snapshot differs from workers=1", w)
		}
	}
}

// traceExports runs a replicated DES scenario with the flight recorder
// attached and returns both exports (JSONL, Chrome trace-event JSON).
func traceExports(t *testing.T, c netsim.Config, workers int) (string, string) {
	t.Helper()
	rec := trace.New(0)
	cc := c
	cc.Trace = rec
	if _, err := netsim.RunReplicas(cc, 6, workers); err != nil {
		t.Fatal(err)
	}
	var jsonl, chrome bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	return jsonl.String(), chrome.String()
}

func TestTraceExportInvariantUnderWorkerCount(t *testing.T) {
	// The flight recording extends the determinism contract to
	// individual frames: replica recorders scope per replica and events
	// carry only simulated time, so both exports must be byte-identical
	// whether the replicas ran on 1, 2, or 8 process workers — for a
	// fault-free scenario and for one exercising retries, losses,
	// sheds, node deaths, SEFI hangs, and ISL outages.
	base := netsim.DefaultConfig(workload.Suite[0])
	base.Constellation = constellation.Constellation{Satellites: 2, FramesPerMinute: 6}
	base.Workers = 5
	base.NeedWorkers = 4
	base.BatchSize = 4
	base.BatchTimeout = 30 * time.Second
	base.Duration = 30 * time.Minute
	base.Seed = 9

	faulted := base
	faulted.Faults = faults.Scenario{
		NodeMTTF:          2 * time.Hour,
		SEFIMTBE:          20 * time.Minute,
		SEFIRecovery:      30 * time.Second,
		ISLOutageMTBF:     30 * time.Minute,
		ISLOutageDuration: time.Minute,
	}
	faulted.RetryLimit = 3
	faulted.ShedThreshold = 40

	// The degraded scenario layers the COTS throttle/brownout schedule
	// over the faulted one; the 2-hour horizon crosses an eclipse so
	// the brownout re-dispatch path records events too.
	degraded := faulted
	degraded.Duration = 2 * time.Hour
	cots := degrade.COTSProfile(0.75)
	degraded.Degrade = &cots

	for _, tc := range []struct {
		name string
		cfg  netsim.Config
	}{
		{"fault-free", base},
		{"faulted", faulted},
		{"degraded", degraded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refJSONL, refChrome := traceExports(t, tc.cfg, 1)
			if refJSONL == "" || !strings.Contains(refJSONL, `"scope":"r005"`) {
				t.Fatalf("JSONL export missing replica scopes:\n%.400s", refJSONL)
			}
			for _, w := range []int{2, 8} {
				jsonl, chrome := traceExports(t, tc.cfg, w)
				if jsonl != refJSONL {
					t.Errorf("workers=%d: JSONL export differs from workers=1", w)
				}
				if chrome != refChrome {
					t.Errorf("workers=%d: Chrome export differs from workers=1", w)
				}
			}
		})
	}
}

func TestExperimentObsInvariantUnderWorkerCount(t *testing.T) {
	// RunAllObserved's deterministic sections (exhibit counter, span
	// counts, simulated durations) must not vary with the worker count;
	// only wall times may, and those stay out of the default snapshot.
	exps := experiments.All()[:6]
	snap := func(workers int) string {
		reg := obs.New()
		if _, err := experiments.RunAllObserved(exps, workers, reg); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().String()
	}
	ref := snap(1)
	if !strings.Contains(ref, "counter experiments/exhibits 6") {
		t.Fatalf("exhibit counter missing:\n%s", ref)
	}
	for _, w := range []int{2, 8} {
		if got := snap(w); got != ref {
			t.Errorf("workers=%d: experiment metric snapshot differs from workers=1", w)
		}
	}
}

// shardExports runs one sharded topology configuration and returns its
// stats plus every observable byte stream: the merged obs snapshot,
// the JSONL trace export, and the Chrome trace export.
func shardExports(t *testing.T, c netsim.Config, shards int) (netsim.Stats, string, string, string) {
	t.Helper()
	reg := obs.New()
	rec := trace.New(0)
	cc := c
	cc.Obs = reg.Scope("netsim")
	cc.Trace = rec
	cc.Shards = shards
	s, err := netsim.Run(cc)
	if err != nil {
		t.Fatal(err)
	}
	var jsonl, chrome bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	return s, reg.Snapshot().String(), jsonl.String(), chrome.String()
}

// sloReportOf runs one topology configuration with 10-minute windows
// and the default SLOs and renders the full per-window report.
func sloReportOf(t *testing.T, c netsim.Config, shards int) string {
	t.Helper()
	cc := c
	cc.Shards = shards
	cc.Window = 10 * time.Minute
	var wins []window.Window
	cc.OnWindow = func(w window.Window) { wins = append(wins, w) }
	sloCfg := slo.DefaultConfig()
	cc.SLO = &sloCfg
	if _, err := netsim.Run(cc); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	slo.WriteReport(&b, sloCfg, wins, slo.Run(sloCfg, wins))
	return b.String()
}

func TestSLOReportInvariantUnderShardAndWorkerCount(t *testing.T) {
	// The windowed telemetry merges cell fragments at the conservative
	// cross-cell watermark, so the per-window SLO report — counters,
	// occupancy attribution, burn rates, alert timeline — must be
	// byte-identical for every (process workers × shards) combination,
	// fault-free and with the full fault + degradation stack active.
	g, err := topo.Walker(4, 8, 5, 2, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	base := netsim.TopologyConfig(workload.Suite[0], g)
	base.BatchSize = 4
	base.BatchTimeout = 30 * time.Second
	base.Duration = 30 * time.Minute
	base.Seed = 9

	degraded := base
	degraded.Faults = faults.Scenario{
		NodeMTTF:          2 * time.Hour,
		SEFIMTBE:          20 * time.Minute,
		SEFIRecovery:      30 * time.Second,
		ISLOutageMTBF:     30 * time.Minute,
		ISLOutageDuration: time.Minute,
	}
	degraded.RetryLimit = 3
	degraded.ShedThreshold = 40
	degraded.Duration = 2 * time.Hour
	cots := degrade.COTSProfile(0.75)
	degraded.Degrade = &cots

	for _, tc := range []struct {
		name string
		cfg  netsim.Config
	}{
		{"fault-free", base},
		{"degraded", degraded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := sloReportOf(t, tc.cfg, 1)
			if !strings.Contains(ref, "SLO report:") || strings.Contains(ref, "SLO report: 0 windows") {
				t.Fatalf("report did not window the run:\n%.400s", ref)
			}
			if tc.name == "degraded" && strings.Contains(ref, "no burn-rate alerts") {
				t.Fatal("degraded scenario must fire burn-rate alerts")
			}
			for _, w := range []int{1, 2, 8} {
				for _, sh := range []int{1, 2, 8} {
					w, sh := w, sh
					t.Run(fmt.Sprintf("workers=%d/shards=%d", w, sh), func(t *testing.T) {
						partest.WithDefaultWorkers(t, w)
						if got := sloReportOf(t, tc.cfg, sh); got != ref {
							t.Errorf("workers=%d shards=%d: SLO report differs from the reference", w, sh)
						}
					})
				}
			}
		})
	}
}

func TestShardedTopologyInvariantUnderShardCount(t *testing.T) {
	// The sharded conservative-lookahead runner extends the determinism
	// contract to topology cells: the shard count only schedules which
	// goroutine advances a cell, so stats, the merged metric snapshot,
	// and both trace exports must be byte-identical for shards 1, 2,
	// and 8 — fault-free and with every fault process active.
	g, err := topo.Walker(4, 8, 5, 2, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	base := netsim.TopologyConfig(workload.Suite[0], g)
	base.BatchSize = 4
	base.BatchTimeout = 30 * time.Second
	base.Duration = 30 * time.Minute
	base.Seed = 9

	faulted := base
	faulted.Faults = faults.Scenario{
		NodeMTTF:          2 * time.Hour,
		SEFIMTBE:          20 * time.Minute,
		SEFIRecovery:      30 * time.Second,
		ISLOutageMTBF:     30 * time.Minute,
		ISLOutageDuration: time.Minute,
	}
	faulted.RetryLimit = 3
	faulted.ShedThreshold = 40

	degraded := faulted
	degraded.Duration = 2 * time.Hour
	cots := degrade.COTSProfile(0.75)
	degraded.Degrade = &cots

	// With windows on, each cell's series points are taken where its
	// collector closes a window: in the cell's own event loop or at the
	// runner's cross-cell watermark, one point per 10-minute window.
	windowed := degraded
	windowed.Window = 10 * time.Minute

	for _, tc := range []struct {
		name   string
		cfg    netsim.Config
		series string // a series line the snapshot must hold
	}{
		{"fault-free", base, "series netsim/c000/retries n=30:"},
		{"faulted", faulted, "series netsim/c000/retries n=30:"},
		{"degraded", degraded, "series netsim/c000/retries n=120:"},
		{"windowed", windowed, "series netsim/c003/retries n=12:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refStats, refSnap, refJSONL, refChrome := shardExports(t, tc.cfg, 1)
			if refStats.CrossShardFrames == 0 {
				t.Fatal("scenario produced no cross-shard traffic — the synchronizer is not exercised")
			}
			if !strings.Contains(refSnap, tc.series) {
				t.Fatalf("snapshot lacks %q:\n%.400s", tc.series, refSnap)
			}
			if !strings.Contains(refSnap, "netsim/c000/") || !strings.Contains(refSnap, "netsim/c003/") {
				t.Fatalf("per-cell scopes missing from snapshot:\n%.400s", refSnap)
			}
			if !strings.Contains(refJSONL, `"scope":"c002"`) {
				t.Fatalf("per-cell trace scopes missing:\n%.400s", refJSONL)
			}
			for _, sh := range []int{2, 8} {
				s, snap, jsonl, chrome := shardExports(t, tc.cfg, sh)
				if s != refStats {
					t.Errorf("shards=%d: stats differ from shards=1", sh)
				}
				if snap != refSnap {
					t.Errorf("shards=%d: metric snapshot differs from shards=1", sh)
				}
				if jsonl != refJSONL {
					t.Errorf("shards=%d: JSONL export differs from shards=1", sh)
				}
				if chrome != refChrome {
					t.Errorf("shards=%d: Chrome export differs from shards=1", sh)
				}
			}
		})
	}
}

func TestClustersRingInvariantUnderShardAndWorkerCount(t *testing.T) {
	// A relay ring has heterogeneous cell-graph delays: 2 ms FSO hops
	// inside each cluster and 400 ms ring ISLs between them, so the
	// per-cell lookahead fixpoint assigns genuinely different limits per
	// cell and round — the regime the old global min-delay window never
	// exercised. Every export must stay byte-identical across process
	// worker and shard counts, fault-free and degraded.
	g, err := topo.ClustersRing(6, 8, 4, 2, 10*units.Gbps, 2*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	base := netsim.TopologyConfig(workload.Suite[0], g)
	base.BatchSize = 4
	base.BatchTimeout = 30 * time.Second
	base.Duration = 30 * time.Minute
	base.Seed = 9

	degraded := base
	degraded.Faults = faults.Scenario{
		NodeMTTF:          2 * time.Hour,
		SEFIMTBE:          20 * time.Minute,
		SEFIRecovery:      30 * time.Second,
		ISLOutageMTBF:     30 * time.Minute,
		ISLOutageDuration: time.Minute,
	}
	degraded.RetryLimit = 3
	degraded.ShedThreshold = 40
	degraded.Duration = 2 * time.Hour
	cots := degrade.COTSProfile(0.75)
	degraded.Degrade = &cots

	for _, tc := range []struct {
		name string
		cfg  netsim.Config
	}{
		{"fault-free", base},
		{"degraded", degraded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refStats, refSnap, refJSONL, refChrome := shardExports(t, tc.cfg, 1)
			if refStats.CrossShardFrames == 0 {
				t.Fatal("relay clusters produced no cross-cell traffic")
			}
			if refStats.Sync.Rounds == 0 || refStats.Sync.CellRuns == 0 {
				t.Fatalf("sync stats not populated: %+v", refStats.Sync)
			}
			for _, w := range []int{1, 2, 8} {
				for _, sh := range []int{1, 2, 8} {
					w, sh := w, sh
					t.Run(fmt.Sprintf("workers=%d/shards=%d", w, sh), func(t *testing.T) {
						partest.WithDefaultWorkers(t, w)
						s, snap, jsonl, chrome := shardExports(t, tc.cfg, sh)
						if s != refStats {
							t.Errorf("stats differ from workers=1/shards=1:\n got  %+v\n want %+v", s, refStats)
						}
						if snap != refSnap {
							t.Error("metric snapshot differs from workers=1/shards=1")
						}
						if jsonl != refJSONL {
							t.Error("JSONL export differs from workers=1/shards=1")
						}
						if chrome != refChrome {
							t.Error("Chrome export differs from workers=1/shards=1")
						}
					})
				}
			}
		})
	}
}
