package netsim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventHeapMatchesSortedOrder drains a randomly filled heap and
// checks the pop sequence against the (at, seq) total order — the exact
// order the old container/heap implementation produced, which is what
// keeps the determinism goldens byte-identical across the swap.
func TestEventHeapMatchesSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	const n = 5000
	events := make([]event, 0, n)
	for i := 0; i < n; i++ {
		// Coarse timestamps force plenty of at-ties so the seq tiebreak
		// is actually exercised.
		e := event{at: float64(rng.Intn(64)), seq: i + 1,
			eventArgs: eventArgs{kind: int32(rng.Intn(10)), who: int32(i)}}
		events = append(events, e)
		h.push(e)
	}
	sort.Slice(events, func(i, j int) bool { return eventLess(&events[i], &events[j]) })
	for i := range events {
		if h.len() == 0 {
			t.Fatalf("heap empty after %d pops, want %d", i, n)
		}
		if got := h.pop(); got != events[i] {
			t.Fatalf("pop %d = %+v, want %+v", i, got, events[i])
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap has %d leftover events", h.len())
	}
}

// TestEventHeapInterleavedAgainstReference interleaves pushes and pops
// and checks every pop against a naive min-extraction reference model.
func TestEventHeapInterleavedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h eventHeap
	var ref []event
	seq := 0
	for op := 0; op < 20000; op++ {
		if len(ref) == 0 || rng.Intn(3) != 0 {
			seq++
			e := event{at: float64(rng.Intn(100)), seq: seq}
			h.push(e)
			ref = append(ref, e)
			continue
		}
		min := 0
		for i := 1; i < len(ref); i++ {
			if eventLess(&ref[i], &ref[min]) {
				min = i
			}
		}
		want := ref[min]
		ref = append(ref[:min], ref[min+1:]...)
		if got := h.pop(); got != want {
			t.Fatalf("op %d: pop = %+v, want %+v", op, got, want)
		}
	}
}

// TestEventHeapPopClearsSlot pins the fix for the old eventQueue.Pop
// leaving the popped value live in the backing array until the next
// reslice: pop must zero the vacated tail slot.
func TestEventHeapPopClearsSlot(t *testing.T) {
	var h eventHeap
	h.push(event{at: 1, seq: 1, eventArgs: eventArgs{who: 42, gen: 7}})
	h.push(event{at: 2, seq: 2, eventArgs: eventArgs{who: 43, gen: 8}})
	h.pop()
	if got := h.a[:2][1]; got != (event{}) {
		t.Errorf("vacated slot not cleared after pop: %+v", got)
	}
	h.pop()
	if got := h.a[:1][0]; got != (event{}) {
		t.Errorf("vacated root slot not cleared after final pop: %+v", got)
	}
}

// TestEventHeapReuseAfterReset pins capacity recycling: reset keeps the
// backing array, so a drained-and-refilled heap never reallocates.
func TestEventHeapReuseAfterReset(t *testing.T) {
	var h eventHeap
	for i := 0; i < 100; i++ {
		h.push(event{at: float64(i), seq: i + 1})
	}
	ptr := &h.a[0]
	c := cap(h.a)
	h.reset()
	if h.len() != 0 {
		t.Fatalf("len after reset = %d", h.len())
	}
	for i := 0; i < 100; i++ {
		h.push(event{at: float64(100 - i), seq: i + 1})
	}
	if &h.a[0] != ptr || cap(h.a) != c {
		t.Error("heap reallocated its backing array after reset")
	}
}

// BenchmarkEventHeap times one push and one pop at the event heap's
// depth in the 24 h star reference run (DefaultConfig of Suite[0]):
// the heap holds 4 events at each pop there (mean 3.6, peak 6), since
// the capture timers live in the capture ring.
func BenchmarkEventHeap(b *testing.B) {
	const depth = 4
	rng := rand.New(rand.NewSource(1))
	delay := make([]float64, 1<<12)
	for i := range delay {
		delay[i] = rng.ExpFloat64()
	}
	mask := len(delay) - 1
	var h eventHeap
	h.grow(depth)
	seq := 0
	for ; seq < depth-1; seq++ {
		h.push(event{at: delay[seq], seq: seq + 1})
	}
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		h.push(event{at: now + delay[i&mask], seq: seq, eventArgs: eventArgs{kind: evISLDone}})
		now = h.pop().at
	}
}
