package netsim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"sudc/internal/faults"
	"sudc/internal/obs"
	"sudc/internal/par"
	"sudc/internal/topo"
	"sudc/internal/units"
	"sudc/internal/workload"
)

// topoFaults is a scenario exercising all three fault processes at
// rates that bite within a 30-minute run.
var topoFaults = faults.Scenario{
	NodeMTTF:          3 * time.Hour,
	SEFIMTBE:          2 * time.Hour,
	SEFIRecovery:      5 * time.Minute,
	ISLOutageMTBF:     time.Hour,
	ISLOutageDuration: 2 * time.Minute,
}

// conserve checks the frame-conservation identity on merged stats.
func conserve(t *testing.T, s Stats) {
	t.Helper()
	if got := s.FramesProcessed + s.FramesShed + s.FramesLost + s.Backlog; got != s.FramesGenerated {
		t.Errorf("conservation broken: processed+shed+lost+backlog = %d, generated = %d", got, s.FramesGenerated)
	}
}

func TestStarTopologyMatchesLegacy(t *testing.T) {
	// A config without a Topology (the legacy configuration surface)
	// must run exactly as the explicit topo.Star graph it is documented
	// to mean — same Stats, same observability stream. Faulted and
	// fault-free.
	for _, tc := range []struct {
		name   string
		faults faults.Scenario
	}{
		{"fault-free", faults.Scenario{}},
		{"faulted", topoFaults},
	} {
		t.Run(tc.name, func(t *testing.T) {
			legacy := DefaultConfig(workload.Suite[0])
			legacy.Duration = time.Hour
			legacy.Faults = tc.faults
			legacy.RetryLimit = 4
			legacy.ShedThreshold = 200

			star := TopologyConfig(workload.Suite[0], topo.Star(legacy.Constellation.Satellites, legacy.Workers))
			star.Duration = legacy.Duration
			star.Faults = tc.faults
			star.RetryLimit = legacy.RetryLimit
			star.ShedThreshold = legacy.ShedThreshold

			lreg, treg := obs.New(), obs.New()
			legacy.Obs = lreg
			star.Obs = treg
			ls, err := Run(legacy)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := Run(star)
			if err != nil {
				t.Fatal(err)
			}
			if ls != ts {
				t.Errorf("stats differ:\n nil topology %+v\n star         %+v", ls, ts)
			}
			if l, s := lreg.Snapshot().String(), treg.Snapshot().String(); l != s {
				t.Error("observability snapshots differ between nil Topology and Star topology")
			}
			conserve(t, ts)
		})
	}
}

func TestWalkerCrossCellTraffic(t *testing.T) {
	// Walker with an SµDC every other plane: half the planes relay all
	// their frames across cell boundaries, so the sharded runner must
	// carry real cross-cell traffic and still conserve frames.
	g, err := topo.Walker(4, 16, 8, 2, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := TopologyConfig(workload.Suite[0], g)
	c.Duration = 30 * time.Minute
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, s)
	if s.CrossShardFrames == 0 {
		t.Error("no cross-shard frames despite relay planes")
	}
	// Every generated frame from the two relay planes crosses exactly
	// one boundary, and no others do.
	if want := s.FramesGenerated / 2; s.CrossShardFrames < want*9/10 || s.CrossShardFrames > want {
		t.Errorf("cross-shard frames = %d, want ≈ half of %d", s.CrossShardFrames, s.FramesGenerated)
	}
	if s.FramesProcessed == 0 || !s.KeptUp {
		t.Errorf("relay planes not being served: %+v", s)
	}
}

func TestShardCountInvariance(t *testing.T) {
	// The tentpole determinism gate at package level: Stats are
	// byte-identical for shard counts 1, 2, and 8 (the root-level
	// determinism test additionally pins obs and trace bytes).
	g, err := topo.Walker(4, 16, 8, 2, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := TopologyConfig(workload.Suite[0], g)
	c.Duration = 30 * time.Minute
	c.Faults = topoFaults
	c.RetryLimit = 4
	c.ShedThreshold = 200
	c.Shards = 1
	ref, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range []int{2, 8} {
		cc := c
		cc.Shards = sh
		s, err := Run(cc)
		if err != nil {
			t.Fatal(err)
		}
		if s != ref {
			t.Errorf("shards=%d stats differ:\n ref %+v\n got %+v", sh, ref, s)
		}
	}
}

// TestShardPoolDrawsFromParBudget: the shard runner's pool helpers are
// par helpers. A sharded run inside a par item while every budget slot
// is busy starts no helper and runs its cells inline; with slots free
// the pool takes them and, once the run finishes, gives them back and
// leaves no goroutine behind, at 2 shards and at 8. Every run returns
// the shards=1 Stats.
func TestShardPoolDrawsFromParBudget(t *testing.T) {
	prevW := par.SetDefaultWorkers(2) // one helper slot
	prevP := runtime.GOMAXPROCS(0)
	t.Cleanup(func() {
		par.SetDefaultWorkers(prevW)
		runtime.GOMAXPROCS(prevP)
	})
	g, err := topo.Walker(8, 8, 5, 2, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := TopologyConfig(workload.Suite[0], g)
	c.Duration = 5 * time.Minute
	c.Shards = 1
	ref, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := compile(c.Topology)
	if err != nil {
		t.Fatal(err)
	}
	// run executes the run at the given shard count and reports how many
	// pool helpers it started.
	run := func(shards int) (Stats, int) {
		cc := c
		cc.Shards = shards
		r, err := newShardRunner(cc, plans, nil)
		if err != nil {
			t.Fatal(err)
		}
		for r.window() {
		}
		helpers := r.helpers
		return r.finish(), helpers
	}

	if held := par.AcquireHelpers(1); held != 1 {
		t.Fatalf("took %d of the budget's one helper slot", held)
	}
	var busy Stats
	var helpers int
	par.ForN(1, func(int) { busy, helpers = run(2) })
	par.ReleaseHelpers(1)
	if helpers != 0 {
		t.Errorf("with every slot busy the pool started %d helpers, want 0", helpers)
	}
	if busy != ref {
		t.Errorf("inline sharded stats differ:\n ref %+v\n got %+v", ref, busy)
	}

	for _, shards := range []int{2, 8} {
		// GOMAXPROCS caps the runners, so it is raised with the budget:
		// the hand-off must hold with more runners than cores too.
		runtime.GOMAXPROCS(shards)
		par.SetDefaultWorkers(shards)
		before := runtime.NumGoroutine()
		free, helpers := run(shards)
		if helpers != shards-1 {
			t.Errorf("shards=%d: the pool started %d helpers, want %d", shards, helpers, shards-1)
		}
		if free != ref {
			t.Errorf("shards=%d: pooled sharded stats differ:\n ref %+v\n got %+v", shards, ref, free)
		}
		if got := par.AcquireHelpers(shards - 1); got != shards-1 {
			t.Errorf("shards=%d: the finished run kept %d helper slots", shards, shards-1-got)
		} else {
			par.ReleaseHelpers(got)
		}
		// A stopped helper has left its loop; the runtime reaps its
		// goroutine a moment later.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("shards=%d: %d goroutines after the run, %d before", shards, runtime.NumGoroutine(), before)
			}
			runtime.Gosched()
		}
	}
}

// TestShardPoolWakesParkedHelper: a helper whose wait for the next
// round outlasts the spin bound parks, and the next handed-off round
// wakes it to run its share.
func TestShardPoolWakesParkedHelper(t *testing.T) {
	prevW := par.SetDefaultWorkers(2)
	prevP := runtime.GOMAXPROCS(2)
	t.Cleanup(func() {
		par.SetDefaultWorkers(prevW)
		runtime.GOMAXPROCS(prevP)
	})
	g, err := topo.Walker(4, 8, 5, 2, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := TopologyConfig(workload.Suite[0], g)
	c.Duration = 5 * time.Minute
	c.Shards = 1
	ref, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := compile(c.Topology)
	if err != nil {
		t.Fatal(err)
	}
	c.Shards = 2
	r, err := newShardRunner(c, plans, nil)
	if err != nil {
		t.Fatal(err)
	}
	for !r.started {
		if !r.window() {
			t.Fatal("run ended before its pool started")
		}
	}
	if r.helpers != 1 {
		t.Fatalf("pool started %d helpers, want 1", r.helpers)
	}
	handedOff := false
	for !handedOff {
		deadline := time.Now().Add(10 * time.Second)
		for !r.pool.park[0].asleep.Load() {
			if time.Now().After(deadline) {
				t.Fatal("idle helper never parked")
			}
			runtime.Gosched()
		}
		epoch, done := r.pool.epoch.Load(), r.pool.done.Load()
		if !r.window() {
			t.Fatal("run ended before a round was handed to the parked helper")
		}
		if handedOff = r.pool.epoch.Load() > epoch; handedOff {
			if n := len(r.active); n < 2 {
				t.Errorf("handed off a round of %d cells", n)
			}
			if got := r.pool.done.Load(); got != done+1 {
				t.Errorf("helper finished %d shares in the round, want 1", got-done)
			}
		}
	}
	for r.window() {
	}
	if got := r.finish(); got != ref {
		t.Errorf("stats differ:\n ref %+v\n got %+v", ref, got)
	}
}

func TestClustersPerEdgeObservability(t *testing.T) {
	// Dense clusters give every satellite its own FSO link: the
	// per-edge queue-depth series must appear one per edge under each
	// cell's scope.
	g, err := topo.ClustersRing(2, 4, 4, 1, units.GbpsOf(10), 10*time.Microsecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := TopologyConfig(workload.Suite[0], g)
	c.Duration = 30 * time.Minute
	reg := obs.New()
	c.Obs = reg
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, s)
	if s.CrossShardFrames != 0 {
		t.Errorf("independent clusters produced %d cross-shard frames", s.CrossShardFrames)
	}
	series := map[string]int{}
	for _, sv := range reg.Snapshot().Series {
		series[sv.Name] = len(sv.Points)
	}
	for _, name := range []string{
		"c000/isl/c00/sat00-c00/hub",
		"c000/isl/c00/sat03-c00/hub",
		"c001/isl/c01/sat00-c01/hub",
	} {
		if series[name] == 0 {
			t.Errorf("per-edge series %q missing from snapshot", name)
		}
	}
}

func TestRelayCellsCarryNoWorkers(t *testing.T) {
	// An SµDC-less relay plane has zero workers; its availability must
	// not drag the merged availability (weight zero), and its frames
	// must still be processed elsewhere.
	g, err := topo.Walker(2, 8, 8, 2, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := TopologyConfig(workload.Suite[0], g)
	c.Duration = 30 * time.Minute
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, s)
	if s.Availability != 1 {
		t.Errorf("fault-free availability = %v, want 1 (relay cell must weigh zero)", s.Availability)
	}
	if s.FramesProcessed == 0 {
		t.Error("relay plane frames never processed")
	}
}

func TestTopologyConfigValidation(t *testing.T) {
	g := topo.Star(4, 2)
	c := TopologyConfig(workload.Suite[0], g)
	if err := c.Validate(); err != nil {
		t.Fatalf("valid topology config rejected: %v", err)
	}
	// A one-cell graph may lower its full-service bar up to its worker
	// complement, as the star has always allowed.
	for _, need := range []int{1, 2} {
		ok := c
		ok.NeedWorkers = need
		if err := ok.Validate(); err != nil {
			t.Errorf("NeedWorkers %d rejected on a 2-worker star: %v", need, err)
		}
	}
	bad := c
	bad.NeedWorkers = 3
	if err := bad.Validate(); err == nil {
		t.Error("NeedWorkers 3 accepted on a 2-worker star")
	}
	// A multi-cell graph defines full service per cell.
	w, err := topo.Walker(2, 4, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad = TopologyConfig(workload.Suite[0], w)
	bad.NeedWorkers = 1
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "multi-cell") {
		t.Errorf("NeedWorkers on a 2-plane Walker: err = %v, want the multi-cell rule", err)
	}
	// A negative shard count is invalid on every graph, the
	// nil-Topology star included.
	star := DefaultConfig(workload.Suite[0])
	for name, cfg := range map[string]Config{"topo.Star": c, "nil Topology": star} {
		cfg.Shards = -1
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: negative shard count accepted", name)
		}
	}
	bad = c
	bad.Topology = &topo.Graph{}
	if err := bad.Validate(); err == nil {
		t.Error("empty graph accepted")
	}
}

// TestCrossShardWindowZeroAllocs pins the cross-shard message path
// allocation-free in steady state: once the outboxes, arrival slots,
// and per-cell arenas are warm, 200 synchronization windows perform
// zero allocations in this module's code (see moduleAllocs).
func TestCrossShardWindowZeroAllocs(t *testing.T) {
	g, err := topo.Walker(4, 16, 8, 2, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := TopologyConfig(workload.Suite[0], g)
	c.Duration = 12 * time.Hour // long enough that measurement never hits the horizon
	c.Shards = 1
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	plans, err := compile(c.Topology)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newShardRunner(c, plans, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if !r.window() {
			t.Fatal("run ended during warm-up")
		}
	}
	if r.sims[0].crossRecv == 0 && r.sims[1].crossRecv == 0 {
		t.Fatal("warm-up produced no cross-shard traffic")
	}
	sites := moduleAllocs(func() {
		for i := 0; i < 200; i++ {
			if !r.window() {
				t.Fatal("run ended mid-measurement")
			}
		}
	})
	if len(sites) > 0 {
		t.Errorf("steady-state windows allocate, want 0 allocations:\n%s", strings.Join(sites, ""))
	}
}
