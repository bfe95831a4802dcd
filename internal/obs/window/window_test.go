package window

import (
	"math"
	"reflect"
	"testing"
)

func TestCollectorSplitsAtBoundaries(t *testing.T) {
	c := NewCollector(10, 0)
	// 0→4 up, 4→25 throttled+down-link: spans windows 0, 1, and part of 2.
	c.Advance(4, Env{Up: true, Weight: 2})
	c.Advance(25, Env{Weight: 2, Throttled: true, DownLinks: 3})
	c.Count(CntGenerated, 5)
	c.Latency(7)
	c.Close()
	frags := c.Drain()
	if len(frags) != 3 {
		t.Fatalf("got %d fragments, want 3", len(frags))
	}
	w0, w1, w2 := frags[0], frags[1], frags[2]
	if w0.Index != 0 || w1.Index != 1 || w2.Index != 2 {
		t.Fatalf("indices %d,%d,%d", w0.Index, w1.Index, w2.Index)
	}
	if w0.Sec != 10 || w1.Sec != 10 || w2.Sec != 5 {
		t.Errorf("Sec = %v,%v,%v, want 10,10,5", w0.Sec, w1.Sec, w2.Sec)
	}
	if w0.UpSec != 8 { // 4 s up × weight 2
		t.Errorf("w0.UpSec = %v, want 8", w0.UpSec)
	}
	if w0.ThrottleSec != 6 || w1.ThrottleSec != 10 || w2.ThrottleSec != 5 {
		t.Errorf("ThrottleSec = %v,%v,%v", w0.ThrottleSec, w1.ThrottleSec, w2.ThrottleSec)
	}
	if w0.OutageSec != 18 { // 6 s × 3 links
		t.Errorf("w0.OutageSec = %v, want 18", w0.OutageSec)
	}
	// Counts and latencies land in the window open at call time.
	if w2.Counts[CntGenerated] != 5 || w2.LatCount != 1 || w2.LatSum != 7 {
		t.Errorf("w2 counts = %+v lat %d/%v", w2.Counts, w2.LatCount, w2.LatSum)
	}
}

func TestCollectorEventAtBoundaryOpensNextWindow(t *testing.T) {
	c := NewCollector(10, 0)
	c.Advance(10, Env{})
	c.Count(CntProcessed, 1) // exactly at t=10: belongs to window 1
	c.Close()
	frags := c.Drain()
	if len(frags) != 2 {
		t.Fatalf("got %d fragments, want 2", len(frags))
	}
	if frags[0].Counts[CntProcessed] != 0 || frags[1].Counts[CntProcessed] != 1 {
		t.Errorf("boundary count in wrong window: %+v", frags)
	}
	if frags[1].Sec != 0 {
		t.Errorf("boundary-only window covered %v s, want 0", frags[1].Sec)
	}
}

func TestAdvanceReturnsClosedFragments(t *testing.T) {
	c := NewCollector(10, 3)
	if got := c.Advance(5, Env{Up: true, Weight: 1}); len(got) != 0 {
		t.Fatalf("mid-window Advance closed %d windows", len(got))
	}
	got := c.Advance(32, Env{Up: true, Weight: 1})
	if len(got) != 3 || got[0].Index != 0 || got[2].Index != 2 || got[0].Cell != 3 || got[2].Sec != 10 {
		t.Fatalf("Advance(32) closed %+v, want whole windows 0–2 of cell 3", got)
	}
	// A later call returns only the windows it closed, while the buffer
	// keeps every undrained one.
	next := c.Advance(41, Env{})
	if len(next) != 1 || next[0].Index != 3 || next[0].UpSec != 2 {
		t.Fatalf("Advance(41) closed %+v, want window 3 alone", next)
	}
	if n := len(c.Drain()); n != 4 {
		t.Errorf("Drain returned %d fragments, want 4", n)
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	if got := c.Advance(5, Env{Up: true}); got != nil {
		t.Errorf("nil Advance = %v", got)
	}
	c.Count(CntShed, 1)
	c.Latency(1)
	c.Cost(1)
	c.Close()
	if got := c.Drain(); got != nil {
		t.Errorf("nil Drain = %v", got)
	}
}

func TestMergeFoldsCellsAndQuantiles(t *testing.T) {
	mk := func(cell int, lats ...float64) Fragment {
		c := NewCollector(60, cell)
		for _, v := range lats {
			c.Latency(v)
			c.Count(CntProcessed, 1)
		}
		c.Advance(60, Env{Up: true, Weight: 1})
		fr := c.Drain()
		if len(fr) != 1 {
			t.Fatalf("want 1 fragment, got %d", len(fr))
		}
		return fr[0]
	}
	wins := Merge(60, []Fragment{mk(0, 1.5, 4, 40), mk(1, 90, 250)})
	if len(wins) != 1 {
		t.Fatalf("got %d windows, want 1", len(wins))
	}
	w := wins[0]
	if w.Cells != 2 || w.LatCount != 5 || w.Counts[CntProcessed] != 5 {
		t.Fatalf("merged window %+v", w)
	}
	if w.LatMin != 1.5 || w.LatMax != 250 {
		t.Errorf("extrema [%v, %v], want [1.5, 250]", w.LatMin, w.LatMax)
	}
	if w.Availability() != 1 {
		t.Errorf("availability %v, want 1", w.Availability())
	}
	p99 := w.LatQuantile(0.99)
	if p99 < 120 || p99 > 250 {
		t.Errorf("p99 = %v, want within (120, 250]", p99)
	}
	if got := w.FracOver(60); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("FracOver(60) = %v, want 0.4 (2 of 5 above a bucket bound)", got)
	}
	if w.FracOver(1e6) != 0 {
		t.Errorf("FracOver above max must be 0, got %v", w.FracOver(1e6))
	}
}

func TestAggRatesOnEmptyWindow(t *testing.T) {
	var a Agg
	if a.Availability() != 1 || a.LossRate() != 0 || a.CostPerFrame() != 0 ||
		a.LatQuantile(0.5) != 0 || a.FracOver(1) != 0 {
		t.Errorf("empty-window rates not neutral: %+v", a)
	}
}

func TestMergerLiveFlushMatchesBatchMerge(t *testing.T) {
	var frags []Fragment
	collect := func(cell int, seed int64) {
		c := NewCollector(30, cell)
		t := 0.0
		for i := 0; i < 200; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			t += float64(uint64(seed)%1000) / 97
			c.Advance(t, Env{
				Up: seed&2 != 0, Weight: 3,
				Throttled: seed&4 != 0, Browned: seed&8 != 0,
				Eclipse: seed&8 != 0, DownLinks: int(uint64(seed) % 3),
			})
			c.Count(Counter(uint64(seed)%uint64(NumCounters)), 1)
			c.Latency(float64(uint64(seed) % 4000))
		}
		c.Close()
		frags = append(frags, c.Drain()...)
	}
	collect(0, 11)
	collect(1, 22)
	collect(2, 33)

	want := Merge(30, frags)

	// Live path: feed fragments grouped by barrier-style (cell-major
	// per flush round) order and flush incrementally.
	m := NewMerger(30, nil)
	var live []Window
	m2 := NewMerger(30, func(w Window) { live = append(live, w) })
	// Canonical order: sort as the runner would deliver (all cells
	// flush every barrier, cell-ascending), which per window is cell
	// ascending — the same as Merge's canonical order.
	sorted := append([]Fragment(nil), frags...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			a, b := sorted[i], sorted[j]
			if b.Index < a.Index || (b.Index == a.Index && b.Cell < a.Cell) {
				sorted[i], sorted[j] = b, a
			}
		}
	}
	for _, f := range sorted {
		m.Add(f)
		m2.Add(f)
		m2.Flush(float64(f.Index) * 30) // watermark trails the fragment
	}
	m.Flush(math.Inf(1))
	m2.Flush(math.Inf(1))
	if !reflect.DeepEqual(m.Windows(), want) {
		t.Errorf("merger result differs from batch Merge")
	}
	if !reflect.DeepEqual(live, want) {
		t.Errorf("incrementally flushed windows differ from batch Merge")
	}
}

// FuzzWindowMerge pins the shard-merge determinism contract: merging
// per-cell window fragments in any arrival order yields byte-identical
// aggregates, because Merge canonicalizes by (index, cell) before
// folding floats.
func FuzzWindowMerge(f *testing.F) {
	f.Add(uint64(1), 3, 4, 10.0)
	f.Add(uint64(99), 8, 2, 0.5)
	f.Add(uint64(12345), 1, 16, 3600.0)
	f.Fuzz(func(t *testing.T, seed uint64, cells, perCell int, width float64) {
		if cells < 1 || cells > 16 || perCell < 1 || perCell > 32 {
			t.Skip()
		}
		if !(width > 1e-3) || width > 1e6 || math.IsNaN(width) {
			t.Skip()
		}
		next := func() uint64 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return seed
		}
		var frags []Fragment
		for cell := 0; cell < cells; cell++ {
			c := NewCollector(width, cell)
			at := 0.0
			for i := 0; i < perCell; i++ {
				r := next()
				at += float64(r%10000) / 1000 * width / 8
				c.Advance(at, Env{
					Up: r&1 != 0, Weight: float64(1 + r%5),
					Eclipse: r&2 != 0, Throttled: r&4 != 0,
					Browned: r&8 != 0, DownLinks: int(r % 4),
				})
				c.Count(Counter(r%uint64(NumCounters)), int64(r%7))
				c.Latency(float64(r%400000) / 100)
				c.Cost(float64(r%1000) / 256)
			}
			c.Close()
			frags = append(frags, c.Drain()...)
		}
		want := Merge(width, frags)
		// Deterministic shuffle derived from the fuzzed seed.
		shuffled := append([]Fragment(nil), frags...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		got := Merge(width, shuffled)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merge order changed the aggregate:\n got %+v\nwant %+v", got, want)
		}
	})
}
