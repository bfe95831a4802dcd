package netsim

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestFrameIs32Bytes pins the frame layout. A saturated downlink queue
// holds ~45k frames in a 65,536-slot ring, so each byte a field adds
// grows that one arena by 64 KB.
func TestFrameIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(frame{}); got != 32 {
		t.Errorf("frame is %d bytes, want 32", got)
	}
}

// TestFrameDequeAgainstSliceModel drives the ring deque with a random
// operation mix — including the wrap-inducing pushFront and the
// shedding removeAt — and checks every observation against a plain
// slice model.
func TestFrameDequeAgainstSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var d frameDeque
	var model []frame
	next := int64(0)
	check := func(op int) {
		if d.len() != len(model) {
			t.Fatalf("op %d: len = %d, model %d", op, d.len(), len(model))
		}
		for i := range model {
			if *d.at(i) != model[i] {
				t.Fatalf("op %d: at(%d) = %+v, model %+v", op, i, *d.at(i), model[i])
			}
		}
	}
	for op := 0; op < 30000; op++ {
		switch k := rng.Intn(5); {
		case k <= 1 || len(model) == 0: // bias toward growth
			next++
			f := frame{id: next, born: float64(op), value: rng.Float64()}
			if k == 0 {
				d.pushFront(f)
				model = append([]frame{f}, model...)
			} else {
				d.pushBack(f)
				model = append(model, f)
			}
		case k == 2:
			got, want := d.popFront(), model[0]
			model = model[1:]
			if got != want {
				t.Fatalf("op %d: popFront = %+v, want %+v", op, got, want)
			}
		case k == 3:
			if got, want := *d.front(), model[0]; got != want {
				t.Fatalf("op %d: front = %+v, want %+v", op, got, want)
			}
		default:
			i := rng.Intn(len(model))
			d.removeAt(i)
			model = append(model[:i:i], model[i+1:]...)
		}
		check(op)
	}
}

// TestFrameDequeReuseAfterReset pins that reset keeps the ring's
// backing array so steady-state reuse never reallocates.
func TestFrameDequeReuseAfterReset(t *testing.T) {
	var d frameDeque
	for i := 0; i < 50; i++ {
		d.pushBack(frame{id: int64(i)})
	}
	ptr, c := &d.buf[0], cap(d.buf)
	d.reset()
	if d.len() != 0 {
		t.Fatalf("len after reset = %d", d.len())
	}
	for i := 0; i < c; i++ {
		d.pushBack(frame{id: int64(i)})
	}
	if &d.buf[0] != ptr || cap(d.buf) != c {
		t.Error("deque reallocated its backing array after reset")
	}
}
