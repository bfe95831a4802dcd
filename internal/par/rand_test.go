package par

import (
	"math"
	"math/rand"
	"testing"
)

// drawKinds are the *rand.Rand methods the port is compared through;
// compareStreams cycles through them, one draw each.
var drawKinds = []struct {
	name string
	draw func(r *rand.Rand) float64
}{
	{"Uint64", func(r *rand.Rand) float64 { return math.Float64frombits(r.Uint64()) }},
	{"Int63", func(r *rand.Rand) float64 { return float64(r.Int63()) }},
	{"Float64", (*rand.Rand).Float64},
	{"ExpFloat64", (*rand.Rand).ExpFloat64},
	{"NormFloat64", (*rand.Rand).NormFloat64},
	{"Intn", func(r *rand.Rand) float64 { return float64(r.Intn(1000)) }},
}

// compareStreams draws n values from got and want, reseeds both with
// reseed, and draws n more, failing at the first value that differs.
func compareStreams(t *testing.T, got, want *rand.Rand, seed, reseed int64, n int) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			k := drawKinds[i%len(drawKinds)]
			g, w := k.draw(got), k.draw(want)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d, reseed %d, pass %d: draw %d (%s) = %v, math/rand draws %v",
					seed, reseed, pass, i, k.name, g, w)
			}
		}
		got.Seed(reseed)
		want.Seed(reseed)
	}
}

func TestSourceMatchesStdlib(t *testing.T) {
	edge := []int64{
		0, seedZero, 1, -1,
		int32max, -int32max, 1 << 31, -(1 << 31), 2 * int32max,
		math.MinInt64, math.MaxInt64,
	}
	for i, seed := range edge {
		reseed := edge[(i+1)%len(edge)]
		compareStreams(t, NewRand(seed), rand.New(rand.NewSource(seed)), seed, reseed, 1500)
	}
	// Forked seeds, through the pooled path as the per-item loops take
	// it. 700 draws read every register word at least once.
	for i := 0; i < 3000; i++ {
		seed, reseed := ForkSeed(7, i), ForkSeed(8, i)
		r := GetRand(seed)
		compareStreams(t, r, rand.New(rand.NewSource(seed)), seed, reseed, 700)
		PutRand(r)
	}
}

func TestGetRandReseedsPooledGenerator(t *testing.T) {
	// A generator returned mid-stream must come back fully reseeded,
	// including the *rand.Rand's Read position.
	r := GetRand(5)
	var buf [3]byte
	r.Read(buf[:])
	r.Float64()
	PutRand(r)
	got := GetRand(9)
	defer PutRand(got)
	want := rand.New(rand.NewSource(9))
	var gb, wb [16]byte
	got.Read(gb[:])
	want.Read(wb[:])
	if gb != wb {
		t.Fatalf("pooled generator reads %x, math/rand reads %x", gb, wb)
	}
}

func FuzzSourceMatchesStdlib(f *testing.F) {
	f.Add(int64(0), uint16(10), int64(1))
	f.Add(int64(seedZero), uint16(700), int64(0))
	f.Add(int64(math.MinInt64), uint16(1300), int64(math.MaxInt64))
	f.Add(ForkSeed(1, 0), uint16(2), ForkSeed(1, 1))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, reseed int64) {
		n := int(draws % 2048)
		compareStreams(t, NewRand(seed), rand.New(rand.NewSource(seed)), seed, reseed, n)
	})
}
