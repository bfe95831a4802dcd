package netsim

import "math"

// minTree is an incremental tournament (winner) tree over float64
// keys: the minimum is read in O(1) and a single key update costs
// O(log n), versus the O(n) linear rescan the sharded runner used
// before. Ties break toward the lower leaf index, so every read of the
// tree — the lookahead Dijkstra's settle order included — is a pure
// function of its keys.
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
// lookahead Dijkstra.
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
