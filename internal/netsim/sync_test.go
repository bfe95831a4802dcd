package netsim

// Property tests for the sharded synchronizer: the delivery order —
// ascending source cell, then emission order — against the
// arrival-time order it never imposes, and the conservative
// scheduler's never-skip invariant — no cell is ever left holding an
// event inside its proven-safe run limit.

import (
	"math"
	"sort"
	"testing"
	"time"

	"sudc/internal/topo"
	"sudc/internal/workload"
)

// popped is one entry of a cell's event order: its time, and a
// message's frame ID or −1−k for the k-th local event.
type popped struct {
	at float64
	id int64
}

// popAll drains both of s's queues in the (at, seq) order runUntil
// applies them, sorting the capture timers first as seedEvents does.
// The capture ring only replaces its head, so a drained capture timer
// is retired to +Inf.
func popAll(s *simulator) []popped {
	s.fq.sort()
	var out []popped
	for s.nextAt() < math.Inf(1) {
		if s.frameFirst() {
			t := *s.fq.top()
			out = append(out, popped{t.at, int64(-1 - t.who)})
			s.fq.replaceTop(frameTimer{at: math.Inf(1), seq: t.seq})
			continue
		}
		e := s.q.pop()
		id := int64(-1 - e.who)
		if e.kind == evArriveMsg {
			id = s.arrivals[e.who].f.id
		}
		out = append(out, popped{e.at, id})
	}
	return out
}

// pushLocal pushes one event and one capture timer at each of the grid
// times 0, 1, …, grid−1, numbering them from k, and returns the next
// free number.
func pushLocal(s *simulator, grid, k int) int {
	for at := 0; at < grid; at++ {
		s.push(float64(at), evWorkerDeath, k, 0)
		s.pushFrame(float64(at), k+1)
		k += 2
	}
	return k
}

// FuzzInjectOrder checks the fact the barrier's delivery rests on:
// injecting one destination's batch in emission order pops the same
// sequence as injecting it stable-sorted by arrival time. Bytes decode
// as (source, time) pairs on a six-point grid, and the batch is the
// sources' messages gathered in ascending source order, so ties within
// and across sources are common and times need not rise. Both
// simulators hold the same local events at every grid time, pushed
// before and after the batch.
func FuzzInjectOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 2, 0})
	f.Add([]byte{0, 1, 1, 1, 0, 0, 1, 0, 3, 2, 3, 0})
	f.Add([]byte{4, 5, 4, 2, 0, 5, 1, 3, 1, 3, 0, 0, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		const sources, grid = 5, 6
		srcs := make([][]shardMsg, sources)
		id := int64(0)
		for i := 0; i+1 < len(data); i += 2 {
			s := int(data[i]) % sources
			id++
			srcs[s] = append(srcs[s], shardMsg{at: float64(data[i+1] % grid), f: frame{id: id}})
		}
		var batch []shardMsg
		for _, src := range srcs {
			batch = append(batch, src...)
		}
		sorted := append([]shardMsg(nil), batch...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })
		run := func(ms []shardMsg) []popped {
			s := new(simulator)
			k := pushLocal(s, grid, 0)
			for _, m := range ms {
				s.inject(m)
			}
			pushLocal(s, grid, k)
			return popAll(s)
		}
		got, want := run(batch), run(sorted)
		if len(got) != len(want) {
			t.Fatalf("popped %d entries, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pop order diverges at %d: emission order %+v, arrival order %+v", i, got[i], want[i])
			}
		}
	})
}

// TestBarrierDeliversEqualTimesInSourceOrder pins the tie order of the
// barrier and of the destination's injection: messages with equal
// arrival times from two source cells pop in their destination in
// ascending source cell order, then emission order, a later round's
// messages after an earlier round's, and an earlier message still pops
// first.
func TestBarrierDeliversEqualTimesInSourceOrder(t *testing.T) {
	inf := math.Inf(1)
	r := &shardRunner{
		sims:   []*simulator{new(simulator), new(simulator), new(simulator)},
		active: []int{0, 1},
		key:    []float64{inf, inf, inf},
		limit:  make([]float64, 3),
		finalC: make([]bool, 3),
	}
	const dst = 2
	r.sims[0].pubAt, r.sims[1].pubAt, r.sims[dst].pubAt = inf, inf, inf
	r.sims[0].outbox = []shardMsg{
		{at: 5, f: frame{id: 1}, cell: dst},
		{at: 5, f: frame{id: 2}, cell: dst},
	}
	r.sims[1].outbox = []shardMsg{
		{at: 5, f: frame{id: 3}, cell: dst},
		{at: 4, f: frame{id: 4}, cell: dst},
		{at: 5, f: frame{id: 5}, cell: dst},
	}
	r.deliver()
	if got := r.syncStats.CrossMsgs; got != 5 {
		t.Errorf("CrossMsgs = %d, want 5", got)
	}
	if k := r.key[dst]; k != 4 || r.tmin != 4 {
		t.Errorf("destination's next-event key = %v, minimum key %v; want 4 and 4", k, r.tmin)
	}
	// The destination does not run this round; the next barrier adds a
	// second round of messages behind the first. A source's run starts
	// by emptying the outbox the barrier read.
	r.active = []int{0}
	r.runCell(0)
	r.sims[0].outbox = append(r.sims[0].outbox,
		shardMsg{at: 5, f: frame{id: 6}, cell: dst},
		shardMsg{at: 3, f: frame{id: 7}, cell: dst},
	)
	r.deliver()
	if r.sims[dst].q.len() != 0 {
		t.Error("the barrier injected into the destination; its own run injects")
	}
	if k := r.key[dst]; k != 3 {
		t.Errorf("destination's next-event key = %v, want 3", k)
	}
	// The destination's run injects its inbox first; a limit of 0 stops
	// it before any event pops.
	r.runCell(dst)
	if len(r.sims[dst].inbox) != 0 {
		t.Error("the destination's run left its inbox full")
	}
	if k := r.key[dst]; k != 3 {
		t.Errorf("destination published next-event time %v, want 3", k)
	}
	want := []popped{{3, 7}, {4, 4}, {5, 1}, {5, 2}, {5, 3}, {5, 5}, {5, 6}}
	got := popAll(r.sims[dst])
	if len(got) != len(want) {
		t.Fatalf("destination popped %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("destination popped %+v, want %+v", got, want)
		}
	}
}

// TestActiveSetNeverSkips pins the conservative scheduler's safety
// complement: after every round, no cell still holds an event inside
// the run bound the round proved safe for it, counting the messages
// waiting in its inbox as its events. A violation means the active-set
// selection skipped a runnable cell — the failure mode that would
// silently desynchronize the shards. Each cell's key must be its next
// event.
func TestActiveSetNeverSkips(t *testing.T) {
	g, err := topo.Walker(4, 8, 5, 2, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := TopologyConfig(workload.Suite[0], g)
	c.Duration = 30 * time.Minute
	c.Seed = 9
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
	rounds := 0
	for r.window() {
		rounds++
		for i, s := range r.sims {
			nx := s.nextAt()
			for _, m := range s.inbox {
				nx = math.Min(nx, m.at)
			}
			if r.key[i] != nx {
				t.Fatalf("round %d: cell %d keyed %v, next event %v", r.round, i, r.key[i], nx)
			}
			if r.lstamp[i] == r.round {
				// Settled below the horizon: the cell must have consumed
				// everything below its limit (or the whole run, when the
				// limit cleared the horizon).
				if lim := r.limit[i]; lim >= r.horizon {
					if nx <= r.horizon {
						t.Fatalf("round %d: final cell %d still holds an event at %v ≤ horizon", r.round, i, nx)
					}
				} else if nx < lim {
					t.Fatalf("round %d: cell %d still holds an event at %v < limit %v", r.round, i, nx, lim)
				}
			} else if nx <= r.horizon {
				// Never settled this round: only possible for a cell whose
				// earliest activity already lies past the horizon.
				t.Fatalf("round %d: unsettled cell %d holds an event at %v ≤ horizon", r.round, i, nx)
			}
		}
	}
	if rounds == 0 {
		t.Fatal("run executed no rounds")
	}
	for _, s := range r.sims {
		putSim(s)
	}
}
