package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// The compiler keeps a struct value in registers, and loads and stores
// it field by field, only when cmd/compile's ssa.CanSSA accepts its
// type: at most 4*PtrSize bytes, at most MaxStruct = 4 fields at every
// struct level, and no array longer than one element. A larger value
// is spilled to memory and copied with wide loads that stall on the
// narrower stores that wrote it.
const (
	ssaMaxBytes  = 4 * unsafe.Sizeof(uintptr(0))
	ssaMaxFields = 4
)

// ssaProblem reports why a value of type t at path would not fit the
// rule above, or "" when it fits.
func ssaProblem(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		if t.NumField() > ssaMaxFields {
			return fmt.Sprintf("%s has %d fields", path, t.NumField())
		}
		for i := 0; i < t.NumField(); i++ {
			if p := ssaProblem(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		if t.Len() > 1 {
			return fmt.Sprintf("%s is an array of %d elements", path, t.Len())
		}
		if t.Len() == 1 {
			return ssaProblem(t.Elem(), path+"[0]")
		}
	}
	return ""
}

// TestHotValuesFitRegisters pins the register-sized layout of the
// values the event loop moves by value: every frame a deque pushes and
// pops, every event the heap pushes and pops, every capture timer the
// ring moves. The byte bound also caps the frame arenas: a saturated
// downlink queue holds ~45k frames in a 65,536-slot ring, so each byte
// a frame grows by adds 64 KB to that one ring.
func TestHotValuesFitRegisters(t *testing.T) {
	for _, v := range []any{frame{}, event{}, frameTimer{}} {
		typ := reflect.TypeOf(v)
		if typ.Size() > ssaMaxBytes {
			t.Errorf("%s is %d bytes; ssa.CanSSA keeps at most 4*PtrSize = %d bytes in registers",
				typ.Name(), typ.Size(), ssaMaxBytes)
		}
		if p := ssaProblem(typ, typ.Name()); p != "" {
			t.Errorf("%s; ssa.CanSSA keeps a struct in registers only with at most MaxStruct = %d fields "+
				"at every struct level and no array longer than 1", p, ssaMaxFields)
		}
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

// BenchmarkFrameDeque times one steady-state pushBack and popFront on
// a deque holding depth frames, the FIFO use of every ISL, input and
// tier queue.
func BenchmarkFrameDeque(b *testing.B) {
	for _, depth := range []int{1, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var d frameDeque
			for i := 0; i < depth; i++ {
				d.pushBack(frame{id: int64(i)})
			}
			var sink frame
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.pushBack(frame{id: int64(i), born: float64(i), value: 0.5})
				sink = d.popFront()
			}
			dequeSink = sink
		})
	}
}

var dequeSink frame
