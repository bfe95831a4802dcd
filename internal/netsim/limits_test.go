package netsim

// The lookahead solver against the Dijkstra pass it replaced, and the
// layer benchmarks of a sharded round's serial bookkeeping: the solver
// and the barrier. The Dijkstra pass lives only here, as the
// differential reference and the benchmark baseline.

import (
	"math"
	"math/bits"
	"testing"
	"time"

	"sudc/internal/topo"
	"sudc/internal/workload"
)

// refLimits is the lookahead solver computeLimits replaced: a Dijkstra
// pass over the cell graph, all cells sources keyed by their next
// event, on a copy of the next-event tournament tree; and the active-set
// selection that went with it, which visits the settled cells only.
type refLimits struct {
	out      [][]cellEdge
	horizon  float64
	hasCross bool
	next     minTree
	dij      minTree
	limit    []float64
	lstamp   []int
	finalC   []bool
	done     []int
	settleAt []float64 // each settled cell's T
	popped   []int
	mark     []uint64
	active   []int
	round    int
}

func newRefLimits(out [][]cellEdge, horizon float64) *refLimits {
	n := len(out)
	r := &refLimits{
		out:      out,
		horizon:  horizon,
		limit:    make([]float64, n),
		lstamp:   make([]int, n),
		finalC:   make([]bool, n),
		done:     make([]int, n),
		settleAt: make([]float64, n),
		mark:     make([]uint64, (n+63)/64),
	}
	for _, row := range out {
		r.hasCross = r.hasCross || len(row) > 0
	}
	r.next.reset(n)
	return r
}

// load starts a round at the given next-event keys.
func (r *refLimits) load(keys []float64) {
	r.round++
	for i, k := range keys {
		r.next.update(i, k)
	}
}

func (r *refLimits) limitOf(i int) float64 {
	if r.lstamp[i] == r.round {
		return r.limit[i]
	}
	return math.Inf(1)
}

func (r *refLimits) computeLimits() {
	r.popped = r.popped[:0]
	if !r.hasCross {
		return
	}
	r.dij.loadFrom(&r.next)
	inf := math.Inf(1)
	for {
		u := r.dij.minLeaf()
		k := r.dij.key[u]
		if k > r.horizon {
			return
		}
		r.dij.update(u, inf)
		r.done[u] = r.round
		r.settleAt[u] = k
		r.popped = append(r.popped, u)
		for _, e := range r.out[u] {
			cand := k + e.delay
			if r.lstamp[e.cell] != r.round || cand < r.limit[e.cell] {
				r.lstamp[e.cell] = r.round
				r.limit[e.cell] = cand
			}
			if r.done[e.cell] != r.round && cand < r.dij.key[e.cell] {
				r.dij.update(e.cell, cand)
			}
		}
	}
}

func (r *refLimits) buildActive() {
	r.active = r.active[:0]
	if !r.hasCross {
		for i, nx := range r.next.key[:r.next.n] {
			if nx <= r.horizon {
				r.limit[i], r.lstamp[i], r.finalC[i] = r.horizon, r.round, true
				r.active = append(r.active, i)
			}
		}
		return
	}
	for _, u := range r.popped {
		lim := r.limitOf(u)
		nx := r.next.key[u]
		if lim >= r.horizon {
			if nx <= r.horizon {
				r.limit[u], r.lstamp[u], r.finalC[u] = r.horizon, r.round, true
				r.mark[u>>6] |= 1 << (u & 63)
			}
		} else if nx < lim {
			r.finalC[u] = false
			r.mark[u>>6] |= 1 << (u & 63)
		}
	}
	for w, m := range r.mark {
		for ; m != 0; m &= m - 1 {
			r.active = append(r.active, w<<6|bits.TrailingZeros64(m))
		}
		r.mark[w] = 0
	}
}

// limitsRunner is a shard runner with only the state the solver and
// the active-set selection read: the cell graph and the horizon.
func limitsRunner(out [][]cellEdge, horizon float64) *shardRunner {
	r := new(shardRunner)
	r.reset(Config{}, len(out))
	r.horizon = horizon
	for u, row := range out {
		r.edgeAt[u] = int32(len(r.edges))
		r.edges = append(r.edges, row...)
	}
	r.sealEdges()
	return r
}

// edgeRows returns the runner's cell graph as one edge row per cell.
func (r *shardRunner) edgeRows() [][]cellEdge {
	rows := make([][]cellEdge, len(r.edgeAt)-1)
	for u := range rows {
		rows[u] = r.edges[r.edgeAt[u]:r.edgeAt[u+1]]
	}
	return rows
}

// fuzzBytes reads a fuzz input cyclically; an empty input reads zeros.
type fuzzBytes struct {
	b []byte
	i int
}

func (f *fuzzBytes) next() byte {
	if len(f.b) == 0 {
		return 0
	}
	v := f.b[f.i%len(f.b)]
	f.i++
	return v
}

// delay decodes a positive cross-cell delay: mostly an eighth-second
// grid of eight values (ties), sometimes a few nanoseconds — far below
// the bucket width, the nanosecond floor of a time.Duration delay.
func (f *fuzzBytes) delay() float64 {
	b := f.next()
	if b < 224 {
		return 0.125 * float64(1+b%8)
	}
	return float64(b-223) * 1e-9
}

// key decodes a next-event time above base: a quarter-second grid
// (ties), past the horizon, or +Inf (a drained cell).
func (f *fuzzBytes) key(base, horizon float64) float64 {
	switch b := f.next(); {
	case b == 255:
		return math.Inf(1)
	case b >= 232:
		return horizon + float64(b-231)*0.5
	default:
		return base + float64(b%64)*0.25
	}
}

// FuzzLimitsMatchReference drives the bucket solver and the reference
// Dijkstra pass over the same random cell graphs and keys for two
// rounds: 1–80 cells on a Walker-style ring, a clusters ring (relay
// cells feed both neighbors, compute cells send nothing) or random
// edges; delays on a coarse grid or of a few nanoseconds; keys with
// ties, past the horizon and +Inf, offset by up to about 2.6e5 s. Both
// must settle the same cells at the same times, give every settled cell
// the same limit, and select the same active list with the same limits
// and final flags.
func FuzzLimitsMatchReference(f *testing.F) {
	f.Add(uint8(63), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(uint8(1), uint8(0), []byte{})
	f.Add(uint8(15), uint8(1), []byte{3, 2, 255, 240, 1, 1, 1, 0, 7, 9})
	f.Add(uint8(40), uint8(2), []byte{200, 230, 250, 255, 17, 4, 99, 31, 64, 2, 128, 6})
	f.Add(uint8(7), uint8(2), []byte{9, 224, 225, 0, 0, 0, 240, 255})
	f.Fuzz(func(t *testing.T, cells, shape uint8, data []byte) {
		in := &fuzzBytes{b: data}
		n := 1 + int(cells)%80
		out := make([][]cellEdge, n)
		edge := func(u, v int) {
			if u != v {
				out[u] = append(out[u], cellEdge{cell: v, delay: in.delay()})
			}
		}
		switch shape % 3 {
		case 0: // Walker: every plane feeds both neighbors
			for u := 0; u < n; u++ {
				edge(u, (u+1)%n)
				if n > 2 {
					edge(u, (u+n-1)%n)
				}
			}
		case 1: // clusters ring: only relay clusters send
			every := 1 + int(in.next())%4
			for u := 0; u < n; u++ {
				if u%every != 0 {
					edge(u, (u+1)%n)
					if n > 2 {
						edge(u, (u+n-1)%n)
					}
				}
			}
		default:
			for m := int(in.next()) % (3 * n); m > 0; m-- {
				edge(int(in.next())%n, int(in.next())%n)
			}
		}
		base := float64(in.next()) * 1023.75
		horizon := base + 12
		ref, r := newRefLimits(out, horizon), limitsRunner(out, horizon)
		keys := make([]float64, n)
		for round := 1; round <= 2; round++ {
			for i := range keys {
				keys[i] = in.key(base, horizon)
			}
			ref.load(keys)
			ref.computeLimits()
			r.round++
			copy(r.key, keys)
			r.tmin = minKey(keys)
			r.computeLimits()
			settled := 0
			for u := 0; u < n && r.hasCross; u++ {
				if r.est[u] > horizon {
					if ref.done[u] == ref.round {
						t.Fatalf("round %d: cell %d settled by the reference at %v, not by the solver (est %v)", round, u, ref.settleAt[u], r.est[u])
					}
					continue
				}
				settled++
				if ref.done[u] != ref.round {
					t.Fatalf("round %d: cell %d settled at %v, not by the reference", round, u, r.est[u])
				}
				if r.est[u] != ref.settleAt[u] {
					t.Fatalf("round %d: cell %d settled at %v, reference %v", round, u, r.est[u], ref.settleAt[u])
				}
				if a, b := r.limitOf(u), ref.limitOf(u); a != b {
					t.Fatalf("round %d: cell %d limit %v, reference %v", round, u, a, b)
				}
			}
			if settled != len(ref.popped) {
				t.Fatalf("round %d: %d cells settled, reference %d", round, settled, len(ref.popped))
			}
			ref.buildActive()
			r.buildActive()
			if len(r.active) != len(ref.active) {
				t.Fatalf("round %d: active %v, reference %v", round, r.active, ref.active)
			}
			for i, u := range r.active {
				if u != ref.active[i] || r.limit[u] != ref.limit[u] || r.finalC[u] != ref.finalC[u] {
					t.Fatalf("round %d: active %v (cell %d limit %v final %v), reference %v (limit %v final %v)",
						round, r.active, u, r.limit[u], r.finalC[u], ref.active, ref.limit[u], ref.finalC[u])
				}
			}
		}
	})
}

// walkerRound returns the runner of the benchmark workload's 64-cell
// Walker (64 planes of 64 satellites, an SµDC every other plane, 200 ms
// inter-plane ISLs, a 5-minute horizon, seed 1) stopped halfway through
// its run, after round 688 of 1,377 has advanced its cells but before
// the barrier.
func walkerRound(b *testing.B) *shardRunner {
	b.Helper()
	g, err := topo.Walker(64, 64, 33, 2, 200*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	c := TopologyConfig(workload.Suite[0], g)
	c.Duration = 5 * time.Minute
	c.Seed = 1
	c.Shards = 1
	if err := c.Validate(); err != nil {
		b.Fatal(err)
	}
	plans, err := compile(c.Topology)
	if err != nil {
		b.Fatal(err)
	}
	r, err := newShardRunner(c, plans, nil)
	if err != nil {
		b.Fatal(err)
	}
	for r.round < 687 {
		if !r.window() {
			b.Fatal("run ended early")
		}
	}
	r.round++
	r.computeLimits()
	r.buildActive()
	r.runActiveCells()
	return r
}

// BenchmarkComputeLimits times one round's lookahead solve on the
// 64-cell Walker at the keys of one benchmark-workload round, with the
// bucket solver and with the reference Dijkstra pass.
func BenchmarkComputeLimits(b *testing.B) {
	w := walkerRound(b)
	keys := append([]float64(nil), w.key...)
	b.Run("solver=bucket", func(b *testing.B) {
		r := limitsRunner(w.edgeRows(), w.horizon)
		copy(r.key, keys)
		r.tmin = minKey(keys)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.round++
			r.computeLimits()
		}
	})
	b.Run("solver=dijkstra", func(b *testing.B) {
		r := newRefLimits(w.edgeRows(), w.horizon)
		r.load(keys)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.round++
			r.computeLimits()
		}
	})
}

// BenchmarkBarrier times one round's barrier on the 64-cell Walker of
// the benchmark workload: the key refresh of the round's 52 ran cells
// and their 71 messages appended to their destinations' inboxes (the
// run averages 51 cells and 45 messages a round). Each iteration first
// restores the inbox lengths and keys the barrier changes.
func BenchmarkBarrier(b *testing.B) {
	r := walkerRound(b)
	keys := append([]float64(nil), r.key...)
	inN := make([]int, len(r.sims))
	for c, s := range r.sims {
		inN[c] = len(s.inbox)
	}
	msgs := 0
	for _, c := range r.active {
		msgs += len(r.sims[c].outbox)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, s := range r.sims {
			s.inbox = s.inbox[:inN[c]]
		}
		copy(r.key, keys)
		r.deliver()
	}
	b.ReportMetric(float64(len(r.active)), "cells")
	b.ReportMetric(float64(msgs), "msgs")
}
