package netsim

// The tournament tree, kept as the priority queue of the reference
// lookahead solver, with property tests against a reference linear
// scan; and the capture ring's fused replaceTop against a reference
// schedule.

import (
	"math"
	"math/rand"
	"testing"
)

// minTree is an incremental tournament (winner) tree over float64
// keys: the minimum is read in O(1) and a single key update costs
// O(log n). Ties break toward the lower leaf index, so every read of the
// tree — the reference Dijkstra's settle order included — is a pure
// function of its keys. It is the priority queue of refLimits
// (limits_test.go), the solver computeLimits replaced.
//
// Layout: leaves are padded to a power of two (base) and keyed +Inf
// beyond n, so every internal node always has two contestants. Node i
// (1 ≤ i < base) stores the winning leaf index of its subtree in
// win[i]; the children of node i are nodes 2i and 2i+1, and leaf j
// lives at node base+j. win[1] is the overall winner. A base of 1
// (n ≤ 1) has no internal nodes and is special-cased.
type minTree struct {
	n    int
	base int
	key  []float64
	win  []int
}

// reset sizes the tree for n leaves, all keyed +Inf.
func (t *minTree) reset(n int) {
	base := 1
	for base < n {
		base <<= 1
	}
	if cap(t.key) < base {
		t.key = make([]float64, base)
		t.win = make([]int, base)
	} else {
		t.key = t.key[:base]
		t.win = t.win[:base]
	}
	t.n, t.base = n, base
	inf := math.Inf(1)
	for i := range t.key {
		t.key[i] = inf
	}
	// With every key equal the lower leaf index wins each contest, so
	// every internal node inherits its left child's winner.
	for i := base - 1; i >= 1; i-- {
		if 2*i >= base {
			t.win[i] = 2*i - base
		} else {
			t.win[i] = t.win[2*i]
		}
	}
}

// loadFrom copies the leaf keys of src (same leaf count) and rebuilds
// the contests bottom-up in O(n) — the per-round initialization of the
// reference Dijkstra.
func (t *minTree) loadFrom(src *minTree) {
	if cap(t.key) < src.base {
		t.key = make([]float64, src.base)
		t.win = make([]int, src.base)
	} else {
		t.key = t.key[:src.base]
		t.win = t.win[:src.base]
	}
	t.n, t.base = src.n, src.base
	copy(t.key, src.key)
	for i := t.base - 1; i >= 1; i-- {
		l, r := t.leafOf(2*i), t.leafOf(2*i+1)
		if t.key[r] < t.key[l] {
			t.win[i] = r
		} else {
			t.win[i] = l
		}
	}
}

// leafOf resolves node c to its winning leaf.
func (t *minTree) leafOf(c int) int {
	if c >= t.base {
		return c - t.base
	}
	return t.win[c]
}

// update sets leaf i's key and replays the contests on its root path.
func (t *minTree) update(i int, k float64) {
	t.key[i] = k
	for p := (t.base + i) >> 1; p >= 1; p >>= 1 {
		l, r := t.leafOf(2*p), t.leafOf(2*p+1)
		// l < r always (left subtree holds the lower leaves), so ties
		// resolve to the lower index.
		if t.key[r] < t.key[l] {
			t.win[p] = r
		} else {
			t.win[p] = l
		}
	}
}

// minLeaf returns the leaf index holding the minimum key (ties → the
// lowest index).
func (t *minTree) minLeaf() int {
	if t.base == 1 {
		return 0
	}
	return t.win[1]
}

// minKey returns the minimum key.
func (t *minTree) minKey() float64 {
	return t.key[t.minLeaf()]
}

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
