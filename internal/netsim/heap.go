package netsim

// eventHeap is a concrete 4-ary min-heap of simulation events keyed on
// (at, seq). It replaces container/heap on the DES hot path: a concrete
// element type means no `any` boxing on push/pop (the old heap.Interface
// paid two allocations per event), and the 4-ary layout halves the tree
// depth so sift-down touches fewer cache lines per operation.
//
// Determinism: (at, seq) is a strict total order — seq is unique per
// push — so every correct min-heap pops the exact same event sequence.
// Swapping the binary interface heap for this one cannot reorder events,
// which is what keeps the determinism goldens byte-identical.
type eventHeap struct {
	a []event
}

// eventLess orders events by time, then by push sequence.
func eventLess(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

func (h *eventHeap) len() int { return len(h.a) }

// reset empties the heap, keeping the backing array for reuse.
func (h *eventHeap) reset() { h.a = h.a[:0] }

// grow ensures capacity for at least n total events without reallocating
// on later pushes.
func (h *eventHeap) grow(n int) {
	if cap(h.a) < n {
		a := make([]event, len(h.a), n)
		copy(a, h.a)
		h.a = a
	}
}

// push inserts e with an inlined sift-up.
func (h *eventHeap) push(e event) {
	h.a = append(h.a, e)
	a := h.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(&a[i], &a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

// pop removes and returns the minimum event, zeroing the vacated slot so
// the backing array never retains a stale element past the pop (the old
// eventQueue.Pop left the popped value live until the next reslice).
func (h *eventHeap) pop() event {
	a := h.a
	top := a[0]
	n := len(a) - 1
	hole := a[n]
	a[n] = event{}
	h.a = a[:n]
	if n == 0 {
		return top
	}
	a = h.a
	// Sift the former last element down from the root, moving the hole
	// rather than swapping: one write per level instead of three.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(&a[j], &a[m]) {
				m = j
			}
		}
		if !eventLess(&a[m], &hole) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = hole
	return top
}

// frameTimer is one satellite's next capture, keyed (at, seq) in the
// same global sequence space as eventHeap. The capture timers live in
// their own heap: they are the bulk of the resident events (one per
// satellite, forever), while most pops come from the transient traffic
// events. Splitting them keeps both heaps shallow, which cuts the
// comparisons per sift — the dominant cost of the DES hot loop.
type frameTimer struct {
	at  float64
	seq int // global tiebreak, shared with eventHeap
	who int // satellite index
}

// frameHeap is a concrete 4-ary min-heap of capture timers. A capture
// always reschedules its satellite, so after seeding the heap never
// changes size: the only mutation is replaceTop.
type frameHeap struct {
	a []frameTimer
}

func timerLess(x, y *frameTimer) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// reset empties the heap, keeping the backing array for reuse.
func (h *frameHeap) reset() { h.a = h.a[:0] }

// grow ensures capacity for n timers without reallocating on push.
func (h *frameHeap) grow(n int) {
	if cap(h.a) < n {
		a := make([]frameTimer, len(h.a), n)
		copy(a, h.a)
		h.a = a
	}
}

// push inserts t with an inlined sift-up.
func (h *frameHeap) push(t frameTimer) {
	h.a = append(h.a, t)
	a := h.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !timerLess(&a[i], &a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

// replaceTop overwrites the minimum timer with its successor and sifts
// it down — the capture loop's pop-then-push fused into one sift, with
// no leaf promotion and no append. Any correct heap yields the same
// (at, seq) pop order, so the fusion cannot perturb determinism.
func (h *frameHeap) replaceTop(t frameTimer) {
	a := h.a
	n := len(a)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if timerLess(&a[j], &a[m]) {
				m = j
			}
		}
		if !timerLess(&a[m], &t) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = t
}
