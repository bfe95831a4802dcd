package netsim

// Property tests for the incremental synchronization structures: the
// tournament tree against a reference linear scan, and the capture
// ring's fused replaceTop against a reference schedule.

import (
	"math"
	"math/rand"
	"testing"
)

// refArgmin is the linear scan the tournament tree replaced: the index
// of the minimum key, ties to the lowest index.
func refArgmin(keys []float64) int {
	m := 0
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[m] {
			m = i
		}
	}
	return m
}

func TestMinTreeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 100} {
		keys := make([]float64, n)
		var tr minTree
		tr.reset(n)
		for i := range keys {
			keys[i] = math.Inf(1)
		}
		for step := 0; step < 400; step++ {
			// Random advance sequence: mostly finite keys drawn from a
			// small grid (forcing ties), occasionally +Inf (a drained
			// cell), applied to a random leaf.
			i := rng.Intn(n)
			k := float64(rng.Intn(8))
			if rng.Intn(10) == 0 {
				k = math.Inf(1)
			}
			keys[i] = k
			tr.update(i, k)
			want := refArgmin(keys)
			if got := tr.minLeaf(); got != want {
				t.Fatalf("n=%d step=%d: minLeaf = %d, linear scan = %d (keys %v)", n, step, got, want, keys)
			}
			if got, want := tr.minKey(), keys[want]; got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("n=%d step=%d: minKey = %v, want %v", n, step, got, want)
			}
		}
	}
}

func TestMinTreeLoadFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, 5, 16, 31} {
		var src, dst minTree
		src.reset(n)
		keys := make([]float64, n)
		for trial := 0; trial < 50; trial++ {
			for i := range keys {
				keys[i] = float64(rng.Intn(6))
				src.update(i, keys[i])
			}
			dst.loadFrom(&src)
			if got, want := dst.minLeaf(), refArgmin(keys); got != want {
				t.Fatalf("n=%d: loadFrom minLeaf = %d, want %d", n, got, want)
			}
			// The copy must be independent: updating dst never perturbs src.
			dst.update(0, -1)
			if got, want := src.minLeaf(), refArgmin(keys); got != want {
				t.Fatalf("n=%d: src perturbed by dst update (minLeaf %d, want %d)", n, got, want)
			}
		}
	}
}

// BenchmarkMinTreeUpdate times one key update of a 64-leaf tournament
// tree, the next-event tree of a 64-cell Walker such as the 4096-
// satellite benchmark layout.
func BenchmarkMinTreeUpdate(b *testing.B) {
	const leaves = 64
	rng := rand.New(rand.NewSource(1))
	leaf := make([]int, 1<<12)
	key := make([]float64, len(leaf))
	for i := range leaf {
		leaf[i], key[i] = rng.Intn(leaves), rng.Float64()
	}
	mask := len(leaf) - 1
	var tr minTree
	tr.reset(leaves)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.update(leaf[i&mask], key[i&mask])
	}
}

func TestFrameHeapReplaceTopMatchesReference(t *testing.T) {
	// The capture ring's fused pop+push must pop the exact (at, seq)
	// order a reference priority queue yields.
	rng := rand.New(rand.NewSource(47))
	const sats = 37
	var h captureRing
	h.grow(sats)
	seq := 0
	sched := make([]frameTimer, sats)
	for i := 0; i < sats; i++ {
		seq++
		ft := frameTimer{at: rng.Float64(), seq: seq, who: i}
		h.push(ft)
		sched[i] = ft
	}
	h.sort()
	for step := 0; step < 2000; step++ {
		// Reference: linear scan for the (at, seq) minimum.
		m := 0
		for i := 1; i < sats; i++ {
			if timerLess(&sched[i], &sched[m]) {
				m = i
			}
		}
		top := *h.top()
		if top != sched[m] {
			t.Fatalf("step %d: ring top %+v, reference min %+v", step, top, sched[m])
		}
		seq++
		succ := frameTimer{at: top.at + 0.5 + rng.Float64(), seq: seq, who: top.who}
		h.replaceTop(succ)
		sched[m] = succ
	}
}
