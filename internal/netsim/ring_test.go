package netsim

// The capture ring against a 4-ary heap of capture timers. The heap
// lives only here, as the differential reference and the benchmark
// baseline.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refFrameHeap is a 4-ary min-heap of capture timers. Any correct
// priority queue pops the same strict (at, seq) order, so it must pop
// exactly what the ring pops.
type refFrameHeap struct {
	a []frameTimer
}

// push inserts t with a sift-up.
func (h *refFrameHeap) push(t frameTimer) {
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
// it down: pop and push fused into one sift.
func (h *refFrameHeap) replaceTop(t frameTimer) {
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

// FuzzCaptureQueueMatchesReference drives the ring and the reference
// heap with the same seeded timers and the same arbitrary successors,
// and requires identical pop sequences. Times sit on a grid of 1/4, so
// equal at values (ordered by rising seq) are common. A successor may
// land anywhere: before the popped timer (a full-length insert, past
// the gallop threshold), among timers at its own time, or retired to
// +Inf with its old seq, as popAll does. The run ends by retiring every
// timer, which drains both queues in full.
func FuzzCaptureQueueMatchesReference(f *testing.F) {
	f.Add(uint16(0), []byte{1, 2, 3})
	f.Add(uint16(1), []byte{0, 8, 255, 40})
	f.Add(uint16(37), []byte{8, 8, 8, 0, 0, 255, 12, 9, 63, 7, 255, 255})
	f.Add(uint16(200), []byte{0, 1, 0, 1, 2, 3, 0, 0, 31, 5, 0, 7, 255, 16, 0, 0})
	f.Add(uint16(64), []byte{40, 41, 39, 40, 42, 38, 40, 40, 41, 39, 43, 37})
	f.Fuzz(func(t *testing.T, n uint16, ops []byte) {
		n %= 600
		var r captureRing
		var h refFrameHeap
		r.grow(int(n))
		seq := 0
		for i := 0; i < int(n); i++ {
			seq++
			// A scrambled phase, so the seeding sort has work to do.
			ft := frameTimer{at: float64(i*37%11) / 4, seq: seq, who: i}
			r.push(ft)
			h.push(ft)
		}
		r.sort()
		if r.len() != len(h.a) {
			t.Fatalf("ring holds %d timers, heap %d", r.len(), len(h.a))
		}
		if n == 0 {
			return
		}
		// check compares the two tops before pop k and returns the top.
		check := func(k int) frameTimer {
			if got, want := *r.top(), h.a[0]; got != want {
				t.Fatalf("pop %d: ring top %+v, heap top %+v", k, got, want)
			}
			return h.a[0]
		}
		replace := func(succ frameTimer) {
			r.replaceTop(succ)
			h.replaceTop(succ)
		}
		for k, b := range ops {
			top := check(k)
			succ := frameTimer{at: math.Inf(1), seq: top.seq, who: top.who}
			if b != 255 {
				seq++
				succ = frameTimer{at: top.at + (float64(b%64)-16)/4, seq: seq, who: top.who}
			}
			replace(succ)
		}
		for k := 0; k < int(n); k++ {
			top := check(len(ops) + k)
			replace(frameTimer{at: math.Inf(1), seq: top.seq, who: top.who})
		}
	})
}

// jitterTimers seeds n capture timers at a random phase within one
// frame period and returns them with a table of successor offsets under
// the simulator's ±5% jitter model.
func jitterTimers(n int, period float64) ([]frameTimer, []float64) {
	rng := rand.New(rand.NewSource(1))
	ts := make([]frameTimer, n)
	for i := range ts {
		ts[i] = frameTimer{at: rng.Float64() * period, seq: i + 1, who: i}
	}
	jit := make([]float64, 1<<12)
	for i := range jit {
		jit[i] = period * (1 + 0.1*(rng.Float64()-0.5))
	}
	return ts, jit
}

// BenchmarkCaptureQueue times one capture reschedule — pop the earliest
// timer and insert its successor one period (±5%) later — on the ring
// and on the reference 4-ary heap, at cells of 2 to 4096 satellites.
func BenchmarkCaptureQueue(b *testing.B) {
	const period = 10.0 // s, 6 frames/min
	for _, n := range []int{2, 64, 1024, 4096} {
		ts, jit := jitterTimers(n, period)
		mask := len(jit) - 1
		b.Run(fmt.Sprintf("ring/n=%d", n), func(b *testing.B) {
			var r captureRing
			r.grow(n)
			for _, ft := range ts {
				r.push(ft)
			}
			r.sort()
			seq := n
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				top := r.top()
				seq++
				r.replaceTop(frameTimer{at: top.at + jit[i&mask], seq: seq, who: top.who})
			}
		})
		b.Run(fmt.Sprintf("heap/n=%d", n), func(b *testing.B) {
			var h refFrameHeap
			h.a = make([]frameTimer, 0, n)
			for _, ft := range ts {
				h.push(ft)
			}
			seq := n
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				top := &h.a[0]
				seq++
				h.replaceTop(frameTimer{at: top.at + jit[i&mask], seq: seq, who: top.who})
			}
		})
	}
}
