package main

import (
	"math/rand"
	"sort"
	"time"
)

// calibRefMS is the median time of calibKernel on the reference host
// (Intel Xeon, 2 vCPU, linux/amd64; see README.md), recorded once.
// Every timing metric is reported in reference-host units: a raw time
// measured in a block is scaled by calibRefMS over the median kernel
// time of that block, so host speed drift between and within runs
// cancels out.
const calibRefMS = 16.0

// The kernel's buffers are allocated once and reused, so running it
// between ops adds no garbage and never moves the ops' GC cycles or
// their pooled allocations.
var (
	calibXS  = make([]float64, 1<<17)
	calibMap = make(map[uint64]int, 1<<16)
	calibRNG = rand.New(rand.NewSource(1))
)

var calibSink float64

// calibKernel times a fixed CPU- and memory-bound job: a fixed-seed
// sort of 2^17 float64s plus 2^16 map inserts, about 16 ms. It calls
// nothing in the module, so no change to the simulator can move it;
// only the host can. A block runs it before every op, so the kernel
// samples the same host conditions as the ops it normalizes.
func calibKernel() float64 {
	t0 := time.Now()
	calibRNG.Seed(1)
	for i := range calibXS {
		calibXS[i] = calibRNG.Float64()
	}
	sort.Float64s(calibXS)
	clear(calibMap)
	for i := 0; i < 1<<16; i++ {
		calibMap[calibRNG.Uint64()] = i
	}
	calibSink = calibXS[len(calibXS)/2] + float64(len(calibMap))
	return ms(time.Since(t0))
}
