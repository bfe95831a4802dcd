package par

// BenchmarkParOverhead measures the engine's per-item dispatch cost for
// tiny work items — the regime where scheduling overhead, not the work,
// dominates. BENCH_LEDGER.json gates the workers=4/items=65536 case; the
// ns/item metric bounds how small a work item can be before funneling it
// through the engine stops paying.

import (
	"fmt"
	"testing"
)

func BenchmarkParOverhead(b *testing.B) {
	for _, workers := range []int{1, 4} {
		for _, items := range []int{1 << 10, 1 << 16} {
			b.Run(fmt.Sprintf("workers=%d/items=%d", workers, items), func(b *testing.B) {
				sink := make([]int64, items)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ForN(items, func(j int) { sink[j]++ }, Workers(workers))
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(items), "ns/item")
			})
		}
	}
}

// TestForNErrReusesRunState pins the descriptor pooling: after a
// parallel run the pooled runState must not retain the caller's closure
// or observer, and repeated multi-worker runs must allocate only the
// helper goroutines they start (the old closure-per-call implementation
// paid for the closure plus every captured variable, and the old
// spawn-every-worker one for a goroutine per worker).
func TestForNErrReusesRunState(t *testing.T) {
	withDefaultWorkers(t, 4)
	var out [64]int64
	fn := func(i int) error { out[i]++; return nil }
	opts := []Option{Workers(4)}
	if err := ForNErr(len(out), fn, opts...); err != nil {
		t.Fatal(err)
	}
	st := statePool.Get().(*runState)
	if st.fn != nil || st.obs != nil || st.firstErr != nil {
		t.Error("pooled runState retains per-run references")
	}
	statePool.Put(st)

	avg := testing.AllocsPerRun(50, func() {
		if err := ForNErr(len(out), fn, opts...); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: one allocation per helper goroutine, and Workers(4) under
	// a default of 4 starts at most 3 (the caller works the run). The
	// descriptor itself is pooled.
	if avg > 3 {
		t.Errorf("ForNErr allocates %.1f per multi-worker call, want ≤ 3", avg)
	}

	serial := []Option{Workers(1)}
	avg = testing.AllocsPerRun(50, func() {
		if err := ForNErr(len(out), fn, serial...); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("serial ForNErr allocates %.1f per call, want 0", avg)
	}
}
