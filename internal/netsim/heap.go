package netsim

import "slices"

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
// their own queue: they are the bulk of the resident events (one per
// satellite, forever), while most pops come from the transient traffic
// events.
type frameTimer struct {
	at  float64
	seq int // global tiebreak, shared with eventHeap
	who int // satellite index
}

func timerLess(x, y *frameTimer) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// gallopAfter is how far replaceTop back-scans element by element
// before it switches to a galloping search and a block move.
const gallopAfter = 8

// captureRing holds the capture timers as a ring sorted by (at, seq).
// A capture always reschedules its satellite, so after seeding the ring
// never changes size: the only mutation is replaceTop, which pops the
// head and inserts the successor. The successor lands one frame period
// (±5%) after the popped timer, so it belongs near the tail: it is
// displaced past only the timers due within the jitter band, a few
// percent of the cell's satellites. Popping is O(1) and the insert is a
// short back-scan from the tail, where a 4-ary heap pays a full sift.
//
// Determinism: (at, seq) is a strict total order, so any correct
// priority queue pops the same timer sequence, and the ring pops what a
// heap would. FuzzCaptureQueueMatchesReference checks it against a
// 4-ary reference heap.
//
// Layout: the timer at logical position i lives at a[(head+i) mod n],
// n = len(a). The popped head's slot becomes the tail slot, so the
// ring needs no spare capacity.
type captureRing struct {
	a    []frameTimer
	head int
}

// reset empties the ring, keeping the backing array for reuse.
func (r *captureRing) reset() {
	r.a = r.a[:0]
	r.head = 0
}

// grow ensures capacity for n timers without reallocating on push.
func (r *captureRing) grow(n int) {
	if cap(r.a) < n {
		r.a = append(make([]frameTimer, 0, n), r.a...)
	}
}

func (r *captureRing) len() int { return len(r.a) }

// top returns the earliest timer. The ring must not be empty.
func (r *captureRing) top() *frameTimer { return &r.a[r.head] }

// push appends t while the ring is being seeded. The seeded timers are
// in arbitrary order until sort runs.
func (r *captureRing) push(t frameTimer) { r.a = append(r.a, t) }

// sort orders the seeded timers: one O(n log n) sort, where inserting
// them one by one would cost O(n²) moves on a random phase.
func (r *captureRing) sort() {
	slices.SortFunc(r.a, func(x, y frameTimer) int {
		if timerLess(&x, &y) {
			return -1
		}
		return 1
	})
	r.head = 0
}

// replaceTop pops the earliest timer and inserts its successor t — the
// capture loop's pop-then-push fused into one move of the ring.
func (r *captureRing) replaceTop(t frameTimer) {
	a := r.a
	n := len(a)
	// The old head's slot is the free tail slot of the advanced ring.
	p := r.head
	if r.head++; r.head == n {
		r.head = 0
	}
	// Back-scan from the tail, moving each timer later than t up into
	// the free slot; after gallopAfter compares the search gallops.
	for free := n - 1; free > 0; free-- {
		q := p - 1
		if q < 0 {
			q = n - 1
		}
		if !timerLess(&t, &a[q]) {
			break
		}
		if free == n-gallopAfter {
			r.gallop(t, free)
			return
		}
		a[p] = a[q]
		p = q
	}
	a[p] = t
}

// phys maps logical position i to its index in a.
func (r *captureRing) phys(i int) int {
	if i += r.head; i >= len(r.a) {
		i -= len(r.a)
	}
	return i
}

// gallop finishes a long insert of t once logical slot free is free and
// the timer just below it is known to be later than t. It finds t's
// slot k in [0, free) with an exponential search backward from the
// tail and a binary search inside the bracket that search finds, then
// moves [k, free) up by one slot as a block and stores t at k.
func (r *captureRing) gallop(t frameTimer, free int) {
	a := r.a
	// Invariant: the timer at logical hi is later than t, and the one at
	// lo is not (lo = −1: no timer checked yet).
	hi, lo := free-1, -1
	for step := 1; hi-step >= 0; step <<= 1 {
		j := hi - step
		if !timerLess(&t, &a[r.phys(j)]) {
			lo = j
			break
		}
		hi = j
	}
	for hi-lo > 1 {
		m := int(uint(lo+hi) >> 1)
		if timerLess(&t, &a[r.phys(m)]) {
			hi = m
		} else {
			lo = m
		}
	}
	// Move logical [hi, free) to [hi+1, free]. The block wraps past the
	// array end at most once, and then its low part starts at a[0].
	ps, pe := r.phys(hi), r.phys(free)
	if ps < pe {
		copy(a[ps+1:pe+1], a[ps:pe])
	} else {
		copy(a[1:pe+1], a[:pe])
		a[0] = a[len(a)-1]
		copy(a[ps+1:], a[ps:len(a)-1])
	}
	a[ps] = t
}
