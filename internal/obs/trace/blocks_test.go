package trace

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestBlockLogLayout pins the event log's layout: blocks double from
// minBlock up to maxBlock, a block never moves once allocated, and both
// readers return the events in record order across block boundaries.
func TestBlockLogLayout(t *testing.T) {
	r := New(0)
	const n = 3*maxBlock + 100
	var first *Event
	for i := 0; i < n; i++ {
		r.Record(Event{T: float64(i), Kind: Enqueued, Frame: int64(i + 1), Node: -1})
		if i == 0 {
			first = &r.log.cur[0]
		}
	}
	var caps []int
	for _, blk := range r.log.full {
		if len(blk) != cap(blk) {
			t.Errorf("full block holds %d of %d events", len(blk), cap(blk))
		}
		caps = append(caps, cap(blk))
	}
	caps = append(caps, cap(r.log.cur))
	if want := []int{256, 512, 1024, 1024, 1024}; fmt.Sprint(caps) != fmt.Sprint(want) {
		t.Errorf("block capacities %v, want %v", caps, want)
	}
	if &r.log.full[0][0] != first {
		t.Error("the first block moved")
	}
	i := 0
	r.Each(func(e *Event) {
		if e.Frame != int64(i+1) {
			t.Fatalf("Each visited frame %d at position %d", e.Frame, i)
		}
		i++
	})
	events := r.Events()
	if i != n || len(events) != n || r.Len() != n {
		t.Fatalf("Each visited %d events, Events returned %d, Len is %d; want %d", i, len(events), r.Len(), n)
	}
	for i, e := range events {
		if e.Frame != int64(i+1) {
			t.Fatalf("Events()[%d] is frame %d", i, e.Frame)
		}
	}
}

// TestBlockLogConcurrentSnapshots records from several goroutines at
// once, one producer into the root scope and one into each of its own
// child scopes, while readers take Each, WriteJSONL, Len and TotalLen
// snapshots. Every snapshot of a scope must be a prefix of the scope's
// final sequence, and the counts must never shrink. Run it under the
// race detector.
func TestBlockLogConcurrentSnapshots(t *testing.T) {
	const (
		children = 3
		n        = 4*maxBlock + minBlock // per producer, across six blocks
	)
	r := New(0)
	scopes := []*Recorder{r}
	for c := 0; c < children; c++ {
		scopes = append(scopes, r.Child(fmt.Sprintf("c%d", c)))
	}
	// prefix reports whether events are frames 1, 2, … in order, with
	// at most n of them: a prefix of what one producer records.
	prefix := func(events func(visit func(e *Event))) (int, bool) {
		k, ok := 0, true
		events(func(e *Event) {
			k++
			ok = ok && e.Frame == int64(k)
		})
		return k, ok && k <= n
	}
	var producers sync.WaitGroup
	for _, s := range scopes {
		producers.Add(1)
		go func(s *Recorder) {
			defer producers.Done()
			for i := 1; i <= n; i++ {
				s.Record(Event{T: float64(i), Kind: Enqueued, Frame: int64(i), Node: -1})
			}
		}(s)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	read := func(check func() error) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				stop := false
				select {
				case <-done:
					stop = true // one more check, after every Record
				default:
				}
				if err := check(); err != nil {
					t.Error(err)
					return
				}
				if stop {
					return
				}
			}
		}()
	}
	read(func() error {
		if k, ok := prefix(r.Each); !ok {
			return fmt.Errorf("Each snapshot of %d events is no prefix", k)
		}
		return nil
	})
	read(func() error {
		var b bytes.Buffer
		if err := r.WriteJSONL(&b); err != nil {
			return err
		}
		back, err := DecodeJSONL(&b)
		if err != nil {
			return err
		}
		if k, ok := prefix(back.Each); !ok {
			return fmt.Errorf("WriteJSONL snapshot of the root scope (%d events) is no prefix", k)
		}
		for _, name := range back.Scopes() {
			if k, ok := prefix(back.Child(name).Each); !ok {
				return fmt.Errorf("WriteJSONL snapshot of scope %s (%d events) is no prefix", name, k)
			}
		}
		return nil
	})
	lastLen, lastTotal := 0, 0
	read(func() error {
		l, total := r.Len(), r.TotalLen()
		if l < lastLen || total < lastTotal || l > n || total > len(scopes)*n {
			return fmt.Errorf("Len %d after %d, TotalLen %d after %d", l, lastLen, total, lastTotal)
		}
		lastLen, lastTotal = l, total
		return nil
	})
	producers.Wait()
	close(done)
	readers.Wait()
	for _, s := range scopes {
		if k, ok := prefix(s.Each); !ok || k != n {
			t.Errorf("final scope holds %d events (prefix %v), want all %d", k, ok, n)
		}
	}
}
