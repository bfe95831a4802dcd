package sudc

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (go test -bench=. -benchmem). Each benchmark runs one exhibit
// end to end — physical design closure, costing, and table assembly — and
// prints the resulting rows once, so a bench run doubles as a full
// reproduction log. Paper-vs-measured values are recorded in
// EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sudc/internal/accel"
	"sudc/internal/degrade"
	"sudc/internal/dse"
	"sudc/internal/experiments"
	"sudc/internal/faults"
	"sudc/internal/netsim"
	"sudc/internal/obs"
	"sudc/internal/obs/slo"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
	"sudc/internal/par/partest"
	"sudc/internal/placement"
	"sudc/internal/topo"
	"sudc/internal/workload"
)

// printOnce prints each exhibit a single time per bench run, not once per
// benchmark iteration.
var printOnce sync.Map

// benchExperiment runs one exhibit — paper, ablation or extension —
// per iteration and prints its table once.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tbl experiments.Table
	for i := 0; i < b.N; i++ {
		tbl, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, done := printOnce.LoadOrStore(id, true); !done {
		b.StopTimer()
		fmt.Printf("\n%s\n", tbl)
		b.StartTimer()
	}
}

func BenchmarkTableI(b *testing.B)   { benchExperiment(b, "Table I") }
func BenchmarkTableII(b *testing.B)  { benchExperiment(b, "Table II") }
func BenchmarkTableIII(b *testing.B) { benchExperiment(b, "Table III") }
func BenchmarkFig3(b *testing.B)     { benchExperiment(b, "Figure 3") }
func BenchmarkFig4(b *testing.B)     { benchExperiment(b, "Figure 4") }
func BenchmarkFig5(b *testing.B)     { benchExperiment(b, "Figure 5") }
func BenchmarkFig6(b *testing.B)     { benchExperiment(b, "Figure 6") }
func BenchmarkFig7(b *testing.B)     { benchExperiment(b, "Figure 7") }
func BenchmarkFig8(b *testing.B)     { benchExperiment(b, "Figure 8") }
func BenchmarkFig9(b *testing.B)     { benchExperiment(b, "Figure 9") }
func BenchmarkFig10(b *testing.B)    { benchExperiment(b, "Figure 10") }
func BenchmarkFig11(b *testing.B)    { benchExperiment(b, "Figure 11") }
func BenchmarkFig12(b *testing.B)    { benchExperiment(b, "Figure 12") }
func BenchmarkFig15(b *testing.B)    { benchExperiment(b, "Figure 15") }
func BenchmarkFig16(b *testing.B)    { benchExperiment(b, "Figure 16") }
func BenchmarkFig17(b *testing.B)    { benchExperiment(b, "Figure 17") }
func BenchmarkFig19(b *testing.B)    { benchExperiment(b, "Figure 19") }
func BenchmarkFig21(b *testing.B)    { benchExperiment(b, "Figure 21") }
func BenchmarkFig22(b *testing.B)    { benchExperiment(b, "Figure 22") }
func BenchmarkFig23(b *testing.B)    { benchExperiment(b, "Figure 23") }
func BenchmarkFig24(b *testing.B)    { benchExperiment(b, "Figure 24") }
func BenchmarkFig25(b *testing.B)    { benchExperiment(b, "Figure 25") }
func BenchmarkFig26(b *testing.B)    { benchExperiment(b, "Figure 26") }
func BenchmarkFig27(b *testing.B)    { benchExperiment(b, "Figure 27") }
func BenchmarkFig28(b *testing.B)    { benchExperiment(b, "Figure 28") }

// BenchmarkDesignClosure measures the core fixed-point design iteration
// alone — the hot path under every TCO query.
func BenchmarkDesignClosure(b *testing.B) {
	cfg := Config(4 * Kilowatt)
	for i := 0; i < b.N; i++ {
		if _, err := Design(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCO measures a full design + costing round trip.
func BenchmarkTCO(b *testing.B) {
	cfg := Config(4 * Kilowatt)
	for i := 0; i < b.N; i++ {
		if _, err := TCO(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks: the design-choice studies behind DESIGN.md.

func BenchmarkAblationThermal(b *testing.B)     { benchExperiment(b, "Ablation A1") }
func BenchmarkAblationPowerSource(b *testing.B) { benchExperiment(b, "Ablation A2") }
func BenchmarkAblationThruster(b *testing.B)    { benchExperiment(b, "Ablation A3") }
func BenchmarkAblationSolarCell(b *testing.B)   { benchExperiment(b, "Ablation A4") }
func BenchmarkAblationISLLaw(b *testing.B)      { benchExperiment(b, "Ablation A5") }
func BenchmarkAblationDecode(b *testing.B)      { benchExperiment(b, "Ablation A6") }
func BenchmarkAblationBatchSize(b *testing.B)   { benchExperiment(b, "Ablation A7") }

// BenchmarkDSE measures the full 7168-design exploration.
func BenchmarkDSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DSEResult(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkers are the scaling points tracked PR over PR.
var benchWorkers = []int{1, 2, 4, 8}

// BenchmarkDSEParallel measures the uncached 7168-design exploration at
// fixed worker counts, so the engine's scaling is visible in every bench
// run regardless of the machine's GOMAXPROCS.
func BenchmarkDSEParallel(b *testing.B) {
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			partest.WithDefaultWorkers(b, w)
			for i := 0; i < b.N; i++ {
				if _, err := dse.Explore(workload.Suite, accel.RTX3090Baseline); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Extension benchmarks: studies beyond the paper's evaluation.

func BenchmarkExtFleetPlan(b *testing.B)      { benchExperiment(b, "Extension E1") }
func BenchmarkExtMaintenance(b *testing.B)    { benchExperiment(b, "Extension E2") }
func BenchmarkExtGEO(b *testing.B)            { benchExperiment(b, "Extension E3") }
func BenchmarkExtPipelineTiming(b *testing.B) { benchExperiment(b, "Extension E4") }

func BenchmarkExtBentPipe(b *testing.B) { benchExperiment(b, "Extension E5") }

func BenchmarkExtTradeStudy(b *testing.B) { benchExperiment(b, "Extension E6") }

func BenchmarkExtOverprovision(b *testing.B) { benchExperiment(b, "Extension E7") }

// The DES-backed extensions E8–E12 are the exhibits list's long poles;
// run them with -benchmem, as their allocation churn sets the exhibits
// workload's GC cost. E7, E9, E11 and E12 run their DES sweeps through
// the shared parallel engine, so their times depend on GOMAXPROCS.

func BenchmarkExtShardedTopology(b *testing.B) { benchExperiment(b, "Extension E8") }
func BenchmarkExtDegradation(b *testing.B)     { benchExperiment(b, "Extension E9") }
func BenchmarkExtSurvivability(b *testing.B)   { benchExperiment(b, "Extension E10") }
func BenchmarkExtPlacement(b *testing.B)       { benchExperiment(b, "Extension E11") }
func BenchmarkExtSLO(b *testing.B)             { benchExperiment(b, "Extension E12") }

// BenchmarkRunAll regenerates all 44 exhibits through RunAll, as the
// exhibits workload of bench/ does, with the process default worker
// count pinned to the RunAll worker count: workers=1 is the fully
// serial pass, workers=2 lets the exhibits and their nested sweeps
// share two cores. The DSE behind Figure 17 is memoized before the
// timer starts.
func BenchmarkRunAll(b *testing.B) {
	exps := append(append(experiments.All(), experiments.Ablations()...), experiments.Extensions()...)
	if _, err := experiments.DSEResult(); err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			partest.WithDefaultWorkers(b, w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunAll(exps, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetsim measures a fault-free 2-hour DES run of the default
// reference scenario. Its BENCH_LEDGER.json row also gates the disabled
// paths of every optional layer, since the run enables none of them.
func BenchmarkNetsim(b *testing.B) {
	c := netsim.DefaultConfig(workload.Suite[0])
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimObserved is BenchmarkNetsim with a metrics registry
// attached — the overhead of full observability (series sampled every
// simulated minute, latency histogram, end-of-run counters) relative to
// BenchmarkNetsim; gated by its own BENCH_LEDGER.json row.
func BenchmarkNetsimObserved(b *testing.B) {
	c := netsim.DefaultConfig(workload.Suite[0])
	for i := 0; i < b.N; i++ {
		c.Obs = obs.New()
		if _, err := netsim.Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimWindowed is BenchmarkNetsimObserved with tumbling
// 10-minute telemetry windows and the SLO engine enabled — the cost of
// per-window aggregation, watermark-ordered flushing, and burn-rate
// evaluation relative to BenchmarkNetsimObserved; gated by its own
// BENCH_LEDGER.json row.
func BenchmarkNetsimWindowed(b *testing.B) {
	c := netsim.DefaultConfig(workload.Suite[0])
	sc := slo.DefaultConfig()
	for i := 0; i < b.N; i++ {
		c.Obs = obs.New()
		c.Window = 10 * time.Minute
		c.OnWindow = func(window.Window) {}
		c.SLO = &sc
		if _, err := netsim.Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimTraced is BenchmarkNetsim with the frame-lineage
// flight recorder attached — the cost of remembering every frame's
// lifecycle, relative to the nil-recorder hot path (one nil check per
// lifecycle point, gated by the BenchmarkNetsim row of
// BENCH_LEDGER.json).
func BenchmarkNetsimTraced(b *testing.B) {
	c := netsim.DefaultConfig(workload.Suite[0])
	for i := 0; i < b.N; i++ {
		c.Trace = trace.New(0)
		if _, err := netsim.Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimSharded measures a 1024-satellite Walker constellation
// (16 planes × 64 satellites, an SµDC every other plane, 200 ms
// inter-plane ISL) through the sharded conservative-lookahead runner at
// shard counts 1, 2, and 8. Results are byte-identical across shard
// counts; only wall time may differ, and only on multi-core machines.
// BENCH_LEDGER.json has one row per shard count.
func BenchmarkNetsimSharded(b *testing.B) {
	g, err := topo.Walker(16, 64, 33, 2, 200*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := netsim.TopologyConfig(workload.Suite[0], g)
			c.Duration = time.Hour
			c.Shards = shards
			for i := 0; i < b.N; i++ {
				if _, err := netsim.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetsimSharded4k measures the synchronizer at constellation
// scale: a 4096-satellite Walker (64 planes × 64 satellites, an SµDC
// every other plane — 64 cells) over a 10-minute horizon. At this size
// the per-round machinery itself is on the hook: the tournament tree
// replaces what would be two 64-cell scans per round, and the active
// set skips the drained cells. Gated by its own BENCH_LEDGER.json row.
func BenchmarkNetsimSharded4k(b *testing.B) {
	g, err := topo.Walker(64, 64, 33, 2, 200*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	c := netsim.TopologyConfig(workload.Suite[0], g)
	c.Duration = 10 * time.Minute
	c.Shards = 1
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimDegraded is BenchmarkNetsimFaulted with the full-
// severity COTS degradation schedule layered on top: thermal
// throttling in sunlight, the eclipse brownout with worker re-dispatch,
// and the temperature-modulated SEFI stream. Gated by its own
// BENCH_LEDGER.json row; the disabled path stays under the
// BenchmarkNetsim row, which the nil fast path leaves unchanged.
func BenchmarkNetsimDegraded(b *testing.B) {
	c := netsim.DefaultConfig(workload.Suite[0])
	c.Faults = faults.Scenario{
		NodeMTTF:          8 * time.Hour,
		SEFIMTBE:          30 * time.Minute,
		SEFIRecovery:      30 * time.Second,
		ISLOutageMTBF:     30 * time.Minute,
		ISLOutageDuration: time.Minute,
	}
	p := degrade.COTSProfile(1)
	c.Degrade = &p
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimPlaced measures the four-tier compute-placement engine
// on the reference run: the queue-aware policy routes every frame
// across onboard / SµDC / ground-edge / cloud with live per-tier queue
// accounting. Gated by its own BENCH_LEDGER.json row; the
// placement-disabled path stays under the BenchmarkNetsim row, since
// BenchmarkNetsim runs with no placement config at all.
func BenchmarkNetsimPlaced(b *testing.B) {
	c := netsim.DefaultConfig(workload.Suite[0])
	scen := placement.DefaultScenario(workload.Suite[0])
	pc, err := scen.Config(placement.Policy{Kind: placement.QueueAware})
	if err != nil {
		b.Fatal(err)
	}
	c.Placement = pc
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimFaulted measures BenchmarkNetsim's run with every
// fault process active. It has no ledger row: the BenchmarkNetsim row's
// note records its median, which no gate checks.
func BenchmarkNetsimFaulted(b *testing.B) {
	c := netsim.DefaultConfig(workload.Suite[0])
	c.Faults = faults.Scenario{
		NodeMTTF:          8 * time.Hour,
		SEFIMTBE:          30 * time.Minute,
		SEFIRecovery:      30 * time.Second,
		ISLOutageMTBF:     30 * time.Minute,
		ISLOutageDuration: time.Minute,
	}
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Run(c); err != nil {
			b.Fatal(err)
		}
	}
}
