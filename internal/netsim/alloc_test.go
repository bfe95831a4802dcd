package netsim

// Allocation guards for the DES hot loop. The perf contract of the
// allocation-free core rewrite: in the obs-off, trace-off steady state,
// fault-free or faulted and degraded, the simulator performs zero
// allocations per event — the event heap, ring deques, batch
// free-list, latency buffer, and batched RNG all reuse warmed capacity.
// These tests pin that budget so a future change that reintroduces
// boxing, reslicing, or per-event closures fails loudly instead of
// silently costing 270k allocs/run.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"sudc/internal/degrade"
	"sudc/internal/faults"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
	"sudc/internal/topo"
	"sudc/internal/workload"
)

// starCell compiles the config's one-cell star, its degradation
// schedule, and its fault schedule: what Run hands resetTopo for a
// nil-Topology config.
func starCell(t testing.TB, c Config) (*cellPlan, faults.Schedule, *degrade.Schedule) {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	plans, err := compile(topo.Star(c.Constellation.Satellites, c.Workers))
	if err != nil {
		t.Fatal(err)
	}
	deg, err := buildDegrade(c)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.BuildModulated(c.Faults, c.Workers, 1, c.Duration, c.Seed, deg.FaultEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	return &plans[0], sched, deg
}

// moduleAllocs runs f once with the memory profiler sampling every
// allocation and returns, per allocation site in this module, the
// count and stack of the allocations f made there. A whole-run guard
// cannot use testing.AllocsPerRun, which counts every malloc in the
// process: the runtime's own goroutines allocate at random points of a
// run (the unique package's post-GC map cleanup, GC mark-worker
// sudogs, the scavenger's timer heap, allocations on a system stack),
// so the count flakes under load and no GC setting makes it exact. A
// site belongs to this module when the innermost frame of its stack
// in a sudc/ package is not this profiling helper; allocations made by
// any goroutine running module code count.
func moduleAllocs(f func()) []string {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocSites()
	f()
	after := allocSites()
	var out []string
	for stk, n := range after {
		if d := n - before[stk]; d > 0 && inModule(stk[:]) {
			var b strings.Builder
			fmt.Fprintf(&b, "%d allocation(s) at:\n", d)
			frames := runtime.CallersFrames(stk[:])
			for {
				fr, more := frames.Next()
				fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", fr.Function, fr.File, fr.Line)
				if !more {
					break
				}
			}
			out = append(out, b.String())
		}
	}
	sort.Strings(out)
	return out
}

// allocSites returns each allocation site's cumulative object count.
// The profile publishes an allocation two GC cycles after it is made,
// hence the two collections.
func allocSites() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	sites := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		sites[r.Stack0] += r.AllocObjects
	}
	return sites
}

// inModule reports whether the innermost sudc/ frame of an allocation
// stack is module code other than the profiling helpers themselves.
func inModule(stk []uintptr) bool {
	frames := runtime.CallersFrames(stk)
	for {
		fr, more := frames.Next()
		if strings.HasPrefix(fr.Function, "sudc/") {
			return !strings.HasSuffix(fr.Function, ".allocSites") &&
				!strings.HasSuffix(fr.Function, ".moduleAllocs")
		}
		if !more {
			return false
		}
	}
}

func TestSteadyStateZeroAllocsPerEvent(t *testing.T) {
	// The faulted run strands batches through node deaths and eclipse
	// brownouts, defers a batch, and retries, loses, and sheds frames.
	// It runs without placement, whose per-tier latency slices grow with
	// every completed frame. Obs, trace, and windows stay off in both
	// rows: the guard pins that their disabled hooks, strand causes
	// included, never allocate.
	faulted := brownoutConfig()
	faulted.Placement = nil
	faulted.Window = 0
	for _, tc := range []struct {
		name    string
		c       Config
		faulted bool
	}{
		{"fault-free", DefaultConfig(workload.Suite[0]), false},
		{"faulted", faulted, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, sched, deg := starCell(t, tc.c)
			s := new(simulator)
			// The first call is a whole warm-up run, which grows every
			// arena to the size the run needs (an ISL outage backlog
			// doubles the link ring several times); the measured call
			// re-runs the config on the recycled arenas, as the simulator
			// pool does. Measuring a whole run in one call counts every
			// allocation, even one made by a single rare event.
			run := func() {
				s.resetTopo(tc.c, p, sched, deg, 0, 1)
				s.runUntil(s.horizon, true)
			}
			run()
			if sites := moduleAllocs(run); len(sites) > 0 {
				t.Errorf("re-run on warmed arenas allocates, want 0 allocations:\n%s", strings.Join(sites, ""))
			}
			st := s.stats
			if tc.faulted && (st.FramesRedispatched == 0 || s.brownoutIdx == 0 || st.BatchesDeferred == 0 ||
				st.FramesRetried == 0 || st.FramesLost == 0 || st.FramesShed == 0) {
				t.Errorf("faulted run does not strand, defer, retry, lose, and shed frames: %+v", st)
			}
		})
	}
}

func TestNilTraceRecorderZeroAllocs(t *testing.T) {
	// The disabled flight recorder costs one nil check per lifecycle
	// point and must never allocate — the trace.Event literal stays on
	// the stack.
	var r *trace.Recorder
	avg := testing.AllocsPerRun(100, func() {
		r.Record(trace.Event{T: 1, Kind: trace.FrameCaptured, Frame: 1, Node: -1})
	})
	if avg != 0 {
		t.Errorf("nil-recorder Record allocates %.2f per call, want 0", avg)
	}
}

func TestNilWindowCollectorZeroAllocs(t *testing.T) {
	// Disabled windowed telemetry (Config.Window == 0) costs one nil
	// check per lifecycle counter and must never allocate.
	var w *window.Collector
	avg := testing.AllocsPerRun(100, func() {
		w.Count(window.CntGenerated, 1)
		w.Latency(42)
	})
	if avg != 0 {
		t.Errorf("nil-collector counters allocate %.2f per call, want 0", avg)
	}
}

func TestSimulatorReusesBackingArrays(t *testing.T) {
	// Re-running a simulator must recycle every arena: the event heap,
	// the latency buffer, and the queues keep their backing arrays
	// across resetTopo — the property that makes RunReplicas reach a
	// zero-growth steady state through the simulator pool.
	c := DefaultConfig(workload.Suite[0])
	c.Duration = 10 * time.Minute
	p, sched, deg := starCell(t, c)
	s := new(simulator)
	run := func() {
		s.resetTopo(c, p, sched, deg, 0, 1)
		s.runUntil(s.horizon, true)
		s.finish()
	}
	run()
	heapPtr := &s.q.a[:1][0]
	latPtr := &s.latencies[:1][0]
	islPtr := &s.links[0].queue.buf[0]
	inputPtr := &s.sudcs[0].input.buf[0]
	capQ, capLat := cap(s.q.a), cap(s.latencies)
	run()
	if &s.q.a[:1][0] != heapPtr || cap(s.q.a) != capQ {
		t.Error("event heap backing array was reallocated on reuse")
	}
	if &s.latencies[:1][0] != latPtr || cap(s.latencies) != capLat {
		t.Error("latency buffer was reallocated on reuse")
	}
	if &s.links[0].queue.buf[0] != islPtr {
		t.Error("ISL queue ring was reallocated on reuse")
	}
	if &s.sudcs[0].input.buf[0] != inputPtr {
		t.Error("input queue ring was reallocated on reuse")
	}
}

func TestRunReplicasRecyclesPooledSimulator(t *testing.T) {
	// After RunReplicas finishes, the pool holds warmed simulators whose
	// arenas the next run reuses instead of reallocating. A garbage
	// collection does not empty it, so the first getSim is warm.
	c := DefaultConfig(workload.Suite[0])
	c.Duration = 5 * time.Minute
	if _, err := RunReplicas(c, 4, 1); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	s := getSim()
	defer putSim(s)
	if cap(s.q.a) == 0 {
		t.Error("pooled simulator has no warmed event-heap capacity")
	}
	if cap(s.latencies) == 0 {
		t.Error("pooled simulator has no warmed latency capacity")
	}
	if s.rec != nil || s.tr != nil || s.rng.src != nil {
		t.Error("pooled simulator retains per-run references after put")
	}
	if s.win != nil || s.winM != nil {
		t.Error("pooled simulator retains windowed-telemetry state after put")
	}
}

func TestSimPoolHandsOutLargestArena(t *testing.T) {
	// The free list hands out the simulator with the most arena
	// capacity, whatever order the simulators came back in.
	var l freeList[*simulator]
	small, large := new(simulator), new(simulator)
	small.latencies = make([]float64, 0, 10)
	large.latencies = make([]float64, 0, 1000)
	l.put(small, small.arenaBytes())
	l.put(large, large.arenaBytes())
	l.put(new(simulator), 0)
	if s, _ := l.get(); s != large {
		t.Errorf("first get returned arena of %d bytes, want the largest (%d)", s.arenaBytes(), large.arenaBytes())
	}
	if s, _ := l.get(); s != small {
		t.Errorf("second get returned arena of %d bytes, want %d", s.arenaBytes(), small.arenaBytes())
	}
	if _, ok := l.get(); !ok {
		t.Error("third get found the list empty")
	}
	if _, ok := l.get(); ok {
		t.Error("get on an empty list reported a value")
	}
}
