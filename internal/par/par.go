// Package par is the repository's shared parallel evaluation engine.
// Every embarrassingly-parallel hot path — the 7168-design accelerator
// DSE, the trade-study sweeps, the Monte-Carlo reliability and lifecycle
// runs, the DES replica and exhibit sweeps, and the experiment runner —
// funnels through the primitives here rather than hand-rolling
// goroutines.
//
// Guarantees:
//
//   - Deterministic ordering: Map/MapErr/ForN write result i for item i,
//     so outputs are in input order regardless of completion order.
//   - Worker-count invariance: results never depend on the worker count;
//     only wall-clock time does. Seeded randomness stays invariant too
//     when streams are forked per work item via ForkSeed/ForkRand
//     instead of shared across items.
//   - Cancellation on error: once any item fails, workers stop picking
//     up new work. Among the failures actually observed, the error for
//     the lowest item index is returned.
//   - One worker budget per process: the caller of ForNErr works its
//     own run, and extra helper goroutines come from a process-wide
//     count capped at DefaultWorkers()−1. A worker that claims a chunk
//     with work left behind it recruits one helper, while the run is
//     under its Workers(n)−1 and the count has room; a helper returns
//     its slot when its run drains, and a caller lends its own slot
//     while it waits for its helpers. Workers(n) is therefore an upper
//     bound, not a pool size. A run nested inside another run's item
//     goes inline while every slot is busy and picks up a helper at its
//     next claim once one frees, so nested runs never have more than
//     DefaultWorkers() items in flight between them (one top-level
//     caller). Work is handed out in chunks so cheap items do not drown
//     in scheduling overhead.
//
// Because a run may execute entirely on its caller, items must never
// wait on one another: an item that blocks until a sibling item starts
// deadlocks when no helper is free. For the same reason an item must
// not wait on a parallel run in another goroutine: that run's caller,
// taking back the slot it lent, may be waiting for one the item's own
// run holds.
//
// The package is stdlib-only and has no dependencies on the rest of the
// repository, so any layer may use it.
package par

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// options configures one parallel run.
type options struct {
	workers int
	chunk   int
}

// Option customizes Map, MapErr, ForN, or ForNErr. It is a plain value
// (not a closure) so resolving options never forces the configuration
// to escape to the heap — the engine's dispatch path stays
// allocation-free for serial runs and pool-bounded for parallel ones.
type Option struct {
	workers int
	chunk   int
}

// apply merges one option into the resolved configuration.
func (opt Option) apply(o *options) {
	if opt.workers > 0 {
		o.workers = opt.workers
	}
	if opt.chunk > 0 {
		o.chunk = opt.chunk
	}
}

// Workers bounds the number of goroutines working one run: its caller
// plus at most n−1 helpers. It is an upper bound, not a pool size — the
// helpers come from the process-wide budget (see the package comment),
// so a run gets fewer while other runs hold the slots. Values ≤ 0 keep
// the default (DefaultWorkers).
func Workers(n int) Option {
	if n < 0 {
		n = 0
	}
	return Option{workers: n}
}

// Chunk sets how many consecutive items a worker claims at a time.
// Values ≤ 0 keep the default (≈4 chunks per worker), which suits both
// cheap items (large chunks amortize scheduling) and expensive ones
// (enough chunks to balance load).
func Chunk(n int) Option {
	if n < 0 {
		n = 0
	}
	return Option{chunk: n}
}

// defaultWorkers, when > 0, overrides GOMAXPROCS as the process-wide
// default worker count.
var defaultWorkers atomic.Int32

// DefaultWorkers returns the worker count used when no Workers option is
// given: the last SetDefaultWorkers override, or GOMAXPROCS.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultWorkers overrides the process-wide default worker count and
// returns the previous override (0 if none was set). n ≤ 0 removes the
// override, restoring GOMAXPROCS. The default also sizes the helper
// budget every run draws from, so it bounds the whole process, nested
// runs included. Because worker count never affects results, this only
// changes how much hardware parallel runs may use — it is the hook
// behind the experiments -workers flag and the scaling benchmarks.
func SetDefaultWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(defaultWorkers.Swap(int32(n)))
}

// Observer receives engine lifecycle events, for observability layers
// to count runs, completed items, and worker occupancy without this
// package depending on them. Implementations must be safe for
// concurrent use: ItemsDone is called from every worker goroutine.
type Observer interface {
	// RunStarted fires once per ForNErr call with the item count and
	// the resolved pool size.
	RunStarted(items, workers int)
	// ItemsDone fires after a worker completes a claimed chunk (or,
	// serially, each item), with the number of items finished.
	ItemsDone(n int)
	// RunFinished fires once per ForNErr call with the run's wall time.
	RunFinished(items, workers int, wall time.Duration)
}

// observerHolder wraps the Observer so atomic.Value tolerates differing
// concrete types (and nil, to unregister).
type observerHolder struct{ o Observer }

var engineObserver atomic.Value // observerHolder

// SetObserver installs a process-wide engine observer (nil removes it).
// Observation never changes results — it is the hook behind the CLIs'
// -metrics flags.
func SetObserver(o Observer) { engineObserver.Store(observerHolder{o: o}) }

// currentObserver returns the installed observer, or nil.
func currentObserver() Observer {
	if h, ok := engineObserver.Load().(observerHolder); ok {
		return h.o
	}
	return nil
}

// slots counts the helper slots in use across the process: helper
// goroutines alive, less callers lending their own slot while they wait
// for their helpers. Every increment checks it against the
// DefaultWorkers()−1 read when its run started, so with one top-level
// caller at most DefaultWorkers() goroutines run items at once, however
// deeply runs nest.
var slots atomic.Int32

// reclaimCond wakes callers waiting in reclaimSlot when a slot frees.
var (
	reclaimMu      sync.Mutex
	reclaimCond    = sync.NewCond(&reclaimMu)
	reclaimWaiters atomic.Int32
)

// acquireSlot takes a helper slot if fewer than limit are in use.
func acquireSlot(limit int32) bool {
	for {
		cur := slots.Load()
		if cur >= limit {
			return false
		}
		if slots.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// releaseSlot returns a slot and wakes any caller waiting to reclaim
// one.
func releaseSlot() {
	slots.Add(-1)
	if reclaimWaiters.Load() > 0 {
		reclaimMu.Lock()
		reclaimCond.Broadcast()
		reclaimMu.Unlock()
	}
	if slotReleased != nil {
		slotReleased()
	}
}

// slotReleased, when non-nil, runs after every slot release: the
// budget tests wait on it instead of sleeping. Set it only while no run
// is in flight.
var slotReleased func()

// reclaimSlot takes back the slot a caller lent while it waited for
// its helpers, blocking until the budget has room. It cannot deadlock:
// every other slot holder is running items (which never wait on one
// another) or lending its own slot, and each lent slot lowers the
// count, so once the holders drain the count sits below any limit.
func reclaimSlot(limit int32) {
	if acquireSlot(limit) {
		return
	}
	reclaimMu.Lock()
	reclaimWaiters.Add(1)
	for !acquireSlot(limit) {
		reclaimCond.Wait()
	}
	reclaimWaiters.Add(-1)
	reclaimMu.Unlock()
}

// runState is one parallel run's dispatch descriptor: the shared claim
// cursor, failure tracking, and chunk geometry the workers consult. It
// used to live in locals captured by a per-call worker closure — one
// closure plus a heap cell per captured variable, every Map/ForN call.
// Hoisting it into a pooled struct makes the engine's per-call dispatch
// cost a pool hit: hot paths that issue thousands of small parallel
// runs (DES replica sweeps, DSE shards) stop paying per-call garbage.
type runState struct {
	next       atomic.Int64 // next unclaimed item index
	failIdx    atomic.Int64 // lowest failing index seen (n = none)
	helpers    atomic.Int32 // helpers this run has recruited
	maxHelpers int32        // Workers(n) − 1
	slotLimit  int32        // DefaultWorkers() − 1 when the run started
	mu         sync.Mutex
	firstErr   error
	firstIdx   int64
	wg         sync.WaitGroup
	n          int64
	chunk      int64
	fn         func(i int) error
	obs        Observer
}

// statePool recycles runState descriptors across ForNErr calls.
var statePool = sync.Pool{New: func() any { return new(runState) }}

// work claims chunks until the run drains or fails. The caller and
// every helper run it; a claim that leaves work behind it recruits one
// more helper.
func (st *runState) work() {
	n, chunk := st.n, st.chunk
	for {
		start := st.next.Add(chunk) - chunk
		if start >= n || start >= st.failIdx.Load() {
			return
		}
		end := start + chunk
		if end >= n {
			end = n
		} else {
			st.recruit()
		}
		for i := start; i < end; i++ {
			if i >= st.failIdx.Load() {
				if st.obs != nil && i > start {
					st.obs.ItemsDone(int(i - start))
				}
				return
			}
			if err := st.fn(int(i)); err != nil {
				st.mu.Lock()
				if i < st.firstIdx {
					st.firstIdx, st.firstErr = i, err
				}
				st.mu.Unlock()
				for {
					cur := st.failIdx.Load()
					if i >= cur || st.failIdx.CompareAndSwap(cur, i) {
						break
					}
				}
				if st.obs != nil && i > start {
					st.obs.ItemsDone(int(i - start))
				}
				return
			}
		}
		if st.obs != nil {
			st.obs.ItemsDone(int(end - start))
		}
	}
}

// recruit starts one helper if the run is under its Workers bound and
// the process budget has room.
func (st *runState) recruit() {
	if st.helpers.Load() >= st.maxHelpers || !acquireSlot(st.slotLimit) {
		return
	}
	if st.helpers.Add(1) > st.maxHelpers {
		// Another worker of this run took the last place first.
		st.helpers.Add(-1)
		releaseSlot()
		return
	}
	// A recruiting worker is itself counted in wg (or is the caller,
	// before its Wait), so this Add never races a Wait at zero.
	st.wg.Add(1)
	go st.helper()
}

// helper works the run until it drains, then returns its slot. It
// touches nothing of st after Done: the caller pools st once Wait
// returns.
func (st *runState) helper() {
	st.work()
	releaseSlot()
	st.wg.Done()
}

// ForNErr calls fn(0..n-1) and waits for completion. The caller works
// the run itself; helpers join it from the process-wide budget, at most
// Workers(n)−1 of them. After the first failure, no new chunks are
// claimed; the error returned is the one with the lowest index among
// those observed.
func ForNErr(n int, fn func(i int) error, opts ...Option) error {
	if n <= 0 {
		return nil
	}
	var o options
	for _, opt := range opts {
		opt.apply(&o)
	}
	def := DefaultWorkers()
	workers := o.workers
	if workers <= 0 {
		workers = def
	}
	if workers > n {
		workers = n
	}
	chunk := o.chunk
	if chunk <= 0 {
		chunk = n / (workers * 4)
		if chunk < 1 {
			chunk = 1
		}
	}

	obs := currentObserver()
	if obs != nil {
		obs.RunStarted(n, workers)
		start := time.Now()
		defer func() { obs.RunFinished(n, workers, time.Since(start)) }()
	}

	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
			if obs != nil {
				obs.ItemsDone(1)
			}
		}
		return nil
	}

	st := statePool.Get().(*runState)
	st.next.Store(0)
	st.failIdx.Store(int64(n))
	st.helpers.Store(0)
	st.maxHelpers = int32(workers - 1)
	st.slotLimit = int32(def - 1)
	st.firstErr = nil
	st.firstIdx = int64(n)
	st.n, st.chunk = int64(n), int64(chunk)
	st.fn, st.obs = fn, obs
	st.work()
	if st.helpers.Load() > 0 {
		// Lend this goroutine's slot to the rest of the process while it
		// idles: a helper's nested run may use it.
		releaseSlot()
		st.wg.Wait()
		reclaimSlot(st.slotLimit)
	}
	err := st.firstErr
	// Drop the caller's references before pooling so the descriptor
	// never retains a closure (and whatever it captured) across runs.
	st.fn, st.obs, st.firstErr = nil, nil, nil
	statePool.Put(st)
	return err
}

// ForN calls fn(0..n-1) across a bounded worker pool and waits for
// completion.
func ForN(n int, fn func(i int), opts ...Option) {
	ForNErr(n, func(i int) error { fn(i); return nil }, opts...)
}

// Map applies fn to every item in parallel, returning results in input
// order.
func Map[T, R any](items []T, fn func(T) R, opts ...Option) []R {
	out := make([]R, len(items))
	ForN(len(items), func(i int) { out[i] = fn(items[i]) }, opts...)
	return out
}

// MapErr applies fn to every item in parallel. On success it returns the
// results in input order; on failure it cancels outstanding work and
// returns the observed error with the lowest item index.
func MapErr[T, R any](items []T, fn func(T) (R, error), opts ...Option) ([]R, error) {
	out := make([]R, len(items))
	err := ForNErr(len(items), func(i int) error {
		r, err := fn(items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForkSeed derives the i-th independent child seed from a root seed via
// the SplitMix64 finalizer, so sibling streams stay decorrelated even
// for adjacent roots and indices. Monte-Carlo code forks one stream per
// work item (trial or fixed-size shard) — never per worker — so results
// are identical under any worker count.
func ForkSeed(root int64, i int) int64 {
	z := uint64(root) + 0x9e3779b97f4a7c15*(uint64(i)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// ForkRand returns a *rand.Rand seeded with ForkSeed(root, i).
func ForkRand(root int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(ForkSeed(root, i)))
}
