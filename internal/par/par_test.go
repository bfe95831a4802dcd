package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapErrPreservesOrder(t *testing.T) {
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	for _, w := range []int{1, 2, 3, 8, 64} {
		got, err := MapErr(items, func(v int) (int, error) { return v * v, nil }, Workers(w))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestMapErrEmptyAndSingle(t *testing.T) {
	if got, err := MapErr(nil, func(v int) (int, error) { return v, nil }); err != nil || len(got) != 0 {
		t.Errorf("empty input produced %d results, err %v", len(got), err)
	}
	if got, err := MapErr([]int{7}, func(v int) (int, error) { return v + 1, nil }); err != nil || len(got) != 1 || got[0] != 8 {
		t.Errorf("single item: got %v, err %v", got, err)
	}
}

func TestMapErrSuccess(t *testing.T) {
	items := []int{1, 2, 3, 4, 5}
	got, err := MapErr(items, func(v int) (int, error) { return v * 10, nil }, Workers(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != items[i]*10 {
			t.Errorf("out[%d] = %d", i, v)
		}
	}
}

func TestMapErrReturnsLowestObservedError(t *testing.T) {
	items := make([]int, 500)
	for _, w := range []int{1, 4, 16} {
		_, err := MapErr(items, func(v int) (int, error) {
			return 0, fmt.Errorf("fail") // every item fails
		}, Workers(w))
		if err == nil {
			t.Fatalf("workers=%d: expected error", w)
		}
	}
	// Serial: the very first failing index must win.
	calls := 0
	_, err := MapErr(items, func(v int) (int, error) {
		calls++
		if calls >= 3 {
			return 0, errors.New("third call fails")
		}
		return 0, nil
	}, Workers(1))
	if err == nil || err.Error() != "third call fails" {
		t.Fatalf("serial error = %v", err)
	}
	if calls != 3 {
		t.Errorf("serial run made %d calls after error, want 3 (cancellation)", calls)
	}
}

func TestForNErrCancelsOutstandingWork(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	err := ForNErr(100000, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	}, Workers(4), Chunk(16))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := calls.Load(); n == 100000 {
		t.Error("no cancellation: every item ran despite early error")
	}
}

func TestWorkersBound(t *testing.T) {
	var inflight, peak atomic.Int64
	ForN(256, func(i int) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inflight.Add(-1)
	}, Workers(3), Chunk(1))
	if p := peak.Load(); p > 3 {
		t.Errorf("observed %d concurrent workers, bound is 3", p)
	}
}

func TestSetDefaultWorkers(t *testing.T) {
	prev := SetDefaultWorkers(5)
	t.Cleanup(func() { SetDefaultWorkers(prev) })
	if DefaultWorkers() != 5 {
		t.Errorf("DefaultWorkers = %d, want 5", DefaultWorkers())
	}
	if got := SetDefaultWorkers(0); got != 5 {
		t.Errorf("SetDefaultWorkers returned %d, want previous 5", got)
	}
	if DefaultWorkers() < 1 {
		t.Error("unset default must fall back to GOMAXPROCS ≥ 1")
	}
}

// countingObserver tallies engine events for the observer-hook tests.
type countingObserver struct {
	runsStarted, runsFinished, items atomic.Int64
}

func (c *countingObserver) RunStarted(items, workers int) { c.runsStarted.Add(1) }
func (c *countingObserver) ItemsDone(n int)               { c.items.Add(int64(n)) }
func (c *countingObserver) RunFinished(items, workers int, wall time.Duration) {
	c.runsFinished.Add(1)
}

func TestObserverSeesEveryItem(t *testing.T) {
	for _, w := range []int{1, 4} {
		var c countingObserver
		SetObserver(&c)
		ForN(257, func(i int) {}, Workers(w), Chunk(8))
		SetObserver(nil)
		if got := c.items.Load(); got != 257 {
			t.Errorf("workers=%d: observer saw %d items, want 257", w, got)
		}
		if c.runsStarted.Load() != 1 || c.runsFinished.Load() != 1 {
			t.Errorf("workers=%d: run events = %d/%d, want 1/1",
				w, c.runsStarted.Load(), c.runsFinished.Load())
		}
	}
}

func TestObserverUnderErrorCountsOnlyCompleted(t *testing.T) {
	var c countingObserver
	SetObserver(&c)
	t.Cleanup(func() { SetObserver(nil) })
	boom := errors.New("boom")
	err := ForNErr(1000, func(i int) error {
		if i == 500 {
			return boom
		}
		return nil
	}, Workers(4), Chunk(16))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := c.items.Load(); got < 1 || got >= 1000 {
		t.Errorf("observer items = %d, want partial completion in [1, 1000)", got)
	}
	if c.runsFinished.Load() != 1 {
		t.Error("RunFinished must fire even on error")
	}
}

func TestForkSeedIndependence(t *testing.T) {
	seen := map[int64]bool{}
	for root := int64(0); root < 4; root++ {
		for i := 0; i < 256; i++ {
			s := ForkSeed(root, i)
			if seen[s] {
				t.Fatalf("collision at root=%d i=%d", root, i)
			}
			seen[s] = true
		}
	}
	// Deterministic.
	if ForkSeed(42, 7) != ForkSeed(42, 7) {
		t.Error("ForkSeed not deterministic")
	}
	// Forked streams start differently.
	a, b := NewRand(ForkSeed(1, 0)), NewRand(ForkSeed(1, 1))
	if a.Int63() == b.Int63() {
		t.Error("sibling streams emit identical first draw")
	}
}

func TestResultsInvariantUnderWorkerCount(t *testing.T) {
	// The core engine guarantee: identical output for any worker count,
	// including with per-item forked randomness.
	trial := func(workers int) []float64 {
		out := make([]float64, 64)
		ForN(64, func(i int) {
			rng := NewRand(ForkSeed(99, i))
			var s float64
			for k := 0; k < 100; k++ {
				s += rng.Float64()
			}
			out[i] = s
		}, Workers(workers), Chunk(3))
		return out
	}
	ref := trial(1)
	for _, w := range []int{2, 4, 8} {
		got := trial(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] differs", w, i)
			}
		}
	}
}

// withDefaultWorkers pins the process default worker count, and with it
// the helper budget, for the rest of the test.
func withDefaultWorkers(t *testing.T, n int) {
	t.Helper()
	prev := SetDefaultWorkers(n)
	t.Cleanup(func() { SetDefaultWorkers(prev) })
}

// raise lifts peak to cur if cur is higher.
func raise(peak *atomic.Int64, cur int64) {
	for {
		p := peak.Load()
		if cur <= p || peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// TestNestedRunsShareBudget pins the process-wide budget: an outer run
// whose items start nested runs never has more than DefaultWorkers()
// leaf items in flight. Pools per call would run each nested run on
// its own full pool (2×2 = 4 items at a default of 2).
func TestNestedRunsShareBudget(t *testing.T) {
	for _, w := range []int{2, 3} {
		withDefaultWorkers(t, w)
		var inflight, peak atomic.Int64
		ForN(4, func(int) {
			ForN(16, func(int) {
				raise(&peak, inflight.Add(1))
				// Hold the item in flight so that overlapping pools show.
				time.Sleep(50 * time.Microsecond)
				inflight.Add(-1)
			}, Chunk(1))
		}, Chunk(1))
		if p := peak.Load(); p > int64(w) {
			t.Errorf("default workers %d: %d nested items in flight at once", w, p)
		}
	}
}

// watchReleases routes every slot release into the returned channel
// for the rest of the test.
func watchReleases(t *testing.T) <-chan struct{} {
	t.Helper()
	// Each test releases a handful of slots; the buffer holds them all,
	// so the hook never blocks a helper on a receive the test skips.
	released := make(chan struct{}, 16)
	slotReleased = func() { released <- struct{}{} }
	t.Cleanup(func() { slotReleased = nil })
	return released
}

// await reports whether ch delivered before a generous deadline; the
// deadline only keeps a broken engine from hanging the test binary.
func await(t *testing.T, ch <-chan struct{}, what string) bool {
	select {
	case <-ch:
		return true
	case <-time.After(10 * time.Second):
		t.Errorf("timed out waiting for %s", what)
		return false
	}
}

// TestNestedRunRecruitsFreedHelper: a nested run started while the
// budget is full runs inline on its caller, and gains a helper at its
// next claim once the sibling holding the only slot has finished.
func TestNestedRunRecruitsFreedHelper(t *testing.T) {
	withDefaultWorkers(t, 2) // one helper slot
	released := watchReleases(t)
	siblingStarted := make(chan struct{})
	finishSibling := make(chan struct{})
	helperJoined := make(chan struct{})
	ForN(2, func(i int) {
		if i == 1 {
			// Claimed by the outer run's helper, which holds the only slot.
			close(siblingStarted)
			<-finishSibling
			return
		}
		<-siblingStarted
		ForN(3, func(j int) {
			switch j {
			case 0:
				// The caller's claim found the budget full.
				close(finishSibling)
				await(t, released, "the sibling's helper to return its slot")
			case 1:
				// The caller's claim of item 1 recruited the freed slot,
				// and only that helper can claim item 2.
				await(t, helperJoined, "a helper to join the nested run")
			case 2:
				close(helperJoined)
			}
		}, Chunk(1))
	}, Chunk(1))
}

// TestNestedRunBorrowsWaitingCallersSlot: a caller that has run out of
// its own work lends its slot while it waits, so a nested run on its
// helper gains a helper even though that helper holds the only slot.
func TestNestedRunBorrowsWaitingCallersSlot(t *testing.T) {
	withDefaultWorkers(t, 2)
	released := watchReleases(t)
	siblingStarted := make(chan struct{})
	helperJoined := make(chan struct{})
	ForN(2, func(i int) {
		if i == 0 {
			// The caller's own item: once it returns, the caller waits.
			<-siblingStarted
			return
		}
		close(siblingStarted)
		if !await(t, released, "the waiting caller to lend its slot") {
			return
		}
		ForN(2, func(j int) {
			if j == 0 {
				await(t, helperJoined, "a helper to join the nested run")
				return
			}
			close(helperJoined)
		}, Chunk(1))
	}, Chunk(1))
}

// TestAcquireHelpersSharesBudget: AcquireHelpers takes only the free
// slots, without waiting, and a run started while it holds them all
// goes inline on its caller until ReleaseHelpers gives them back.
func TestAcquireHelpersSharesBudget(t *testing.T) {
	withDefaultWorkers(t, 3) // two helper slots
	if got := AcquireHelpers(5); got != 2 {
		t.Fatalf("AcquireHelpers(5) took %d slots, want the budget's 2", got)
	}
	if got := AcquireHelpers(1); got != 0 {
		ReleaseHelpers(got)
		t.Errorf("AcquireHelpers took %d slots from a full budget", got)
	}
	var inflight, peak atomic.Int64
	ForN(8, func(int) {
		raise(&peak, inflight.Add(1))
		time.Sleep(50 * time.Microsecond)
		inflight.Add(-1)
	}, Chunk(1))
	ReleaseHelpers(2)
	if p := peak.Load(); p != 1 {
		t.Errorf("a run under a full budget had %d items in flight, want 1", p)
	}
	if got := AcquireHelpers(2); got != 2 {
		t.Errorf("after ReleaseHelpers, AcquireHelpers(2) took %d slots", got)
	}
	ReleaseHelpers(2)
}
