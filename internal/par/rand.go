package par

// Random streams. Every non-test generator in the repository is a
// *rand.Rand over source, a port of math/rand's additive
// lagged-Fibonacci source: its Int63 and Uint64 are the standard
// library's code, so a stream draws exactly what
// rand.New(rand.NewSource(seed)) draws, through every *rand.Rand method.
// Only seeding differs. math/rand fills the 607-word register from 1,841
// dependent steps of the Lehmer recurrence x ← 48271·x mod (2³¹−1);
// step k is simply 48271^k·x₀ mod (2³¹−1), so Seed multiplies the
// seed by a table of those powers, built once at init, with no serial
// chain. On a 2-vCPU Xeon a reseed costs ~3 µs against the standard
// library's ~13 µs (BenchmarkReseed), and reseeding a pooled generator
// (GetRand) allocates nothing, where a fresh source is ~4.9 KB.

import (
	"math/rand"
	"sync"
)

const (
	rngLen   = 607       // register length
	rngTap   = 273       // lag of the second tap
	rngMask  = 1<<63 - 1 // Int63's mask
	int32max = 1<<31 - 1 // the seeding recurrence's modulus
	seedMul  = 48271     // the seeding recurrence's multiplier
	seedZero = 89482311  // what math/rand seeds in place of 0
	seedSkip = 20        // recurrence steps math/rand discards first
)

var (
	// seedPow[i][j] is 48271^(seedSkip+1+3i+j) mod (2³¹−1): times the
	// normalized seed, it is the j-th of the three Lehmer states that
	// math/rand's seeding loop folds into register word i.
	seedPow [rngLen][3]uint64
	// rngCooked is math/rand's table of 607 seeding constants, which
	// every register word is XORed with.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k <= seedSkip; k++ {
		p = mulMod(p, seedMul)
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			seedPow[i][j] = p
			p = mulMod(p, seedMul)
		}
	}
	recoverCooked()
}

// recoverCooked reads math/rand's seeding constants back out of the
// first rngLen draws of rand.NewSource(1), so no copy of the table is
// kept here. Each of those draws adds the tap word to the feed word and
// stores the sum in the feed slot, and the feed slots of the first
// rngLen draws are all distinct: afterwards the register holds exactly
// those draws. Undoing the additions from the last draw back restores
// the register seeding left, which is seed 1's Lehmer words XOR the
// constants.
func recoverCooked() {
	src := rand.NewSource(1).(rand.Source64)
	// feed(j) is the slot draw j writes; tap(j) = rngLen−1−j is the one
	// it adds, never its own slot.
	feed := func(j int) int { return (2*rngLen - rngTap - 1 - j) % rngLen }
	var vec [rngLen]int64
	for j := 0; j < rngLen; j++ {
		vec[feed(j)] = int64(src.Uint64())
	}
	for j := rngLen - 1; j >= 0; j-- {
		vec[feed(j)] -= vec[rngLen-1-j]
	}
	// With the constants still zero, seeding 1 yields its bare Lehmer
	// words.
	var s source
	s.Seed(1)
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ s.vec[i]
	}
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹, folding the product's
// high bits onto its low bits (2³¹ ≡ 1).
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31 // < 2³²
	p = p&int32max + p>>31 // ≤ 2³¹−1
	if p == int32max {
		p = 0
	}
	return p
}

// source is math/rand's rngSource with table-driven seeding.
type source struct {
	tap  int           // index into vec
	feed int           // index into vec
	vec  [rngLen]int64 // current feedback register
}

// Seed fills the register exactly as math/rand's Seed does: word i is
// three consecutive states of the Lehmer recurrence, shifted and XORed
// together, XOR the i-th constant. Only seed mod (2³¹−1) matters.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZero
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &seedPow[i]
		u := int64(mulMod(x, p[0])) << 40
		u ^= int64(mulMod(x, p[1])) << 20
		u ^= int64(mulMod(x, p[2]))
		s.vec[i] = u ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer as a uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}

	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}

	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// ForkSeed derives the i-th child seed from a root seed via the
// SplitMix64 finalizer, so adjacent roots and indices give unrelated
// seeds. Monte-Carlo code forks one stream per work item (trial or
// fixed-size shard) — never per worker — so results are identical
// under any worker count. The seed is 64 bits wide, but the generator
// keeps only seed mod (2³¹−1), so the streams are not as decorrelated
// as the seeds: every stream starts from one of 2³¹−2 register states,
// two of ~55,000 forked streams share one with even odds (the birthday
// bound), and seeds that agree mod 2³¹−1, such as 1 and 2³¹, start
// the same stream.
func ForkSeed(root int64, i int) int64 {
	z := uint64(root) + 0x9e3779b97f4a7c15*(uint64(i)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// NewRand returns a fresh generator seeded with seed. It draws exactly
// what rand.New(rand.NewSource(seed)) draws.
func NewRand(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// randPool recycles generators across per-item streams. Seed
// re-initializes a source fully, so a pooled generator reseeded for a
// stream draws exactly what a fresh one would.
var randPool = sync.Pool{New: func() any { return rand.New(new(source)) }}

// GetRand returns a pooled generator seeded with seed: it draws exactly
// what NewRand(seed) would, without allocating once the pool is warm.
// Reseeding it (Seed) starts another stream in place. Return it with
// PutRand when its streams are done.
func GetRand(seed int64) *rand.Rand {
	r := randPool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// PutRand returns a generator taken with GetRand to the pool. The
// caller must not use it afterwards.
func PutRand(r *rand.Rand) { randPool.Put(r) }
