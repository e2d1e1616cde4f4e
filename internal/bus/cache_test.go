package bus

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestAllocateCacheMatchesFresh drives one allocator through random
// sequences of flow sets drawn from a pool of four, so a call often
// repeats the one before, with SetChannels calls (some of them changing
// nothing) interleaved. Every call must return rates bit-equal to those
// of a fresh allocator built with the same capacities: the remembered
// answer may only be reused while nothing it depends on has changed.
func TestAllocateCacheMatchesFresh(t *testing.T) {
	const buses, chips = 3, 24
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		busCaps := make([]float64, buses)
		for i := range busCaps {
			busCaps[i] = PCIXBandwidth * (0.25 + rng.Float64())
		}
		var channelOf []int
		var channelCap []float64
		a := NewAllocator(append([]float64(nil), busCaps...), 3.2e9)

		pool := make([][]Flow, 4)
		for i := range pool {
			pool[i] = make([]Flow, 1+rng.Intn(8))
			for j := range pool[i] {
				pool[i][j] = Flow{Bus: rng.Intn(buses), Chip: rng.Intn(chips)}
			}
		}
		hits := 0
		var prev []Flow
		for step := 0; step < 200; step++ {
			if rng.Intn(5) == 0 {
				switch rng.Intn(3) {
				case 0:
					channelOf, channelCap = nil, nil
				default:
					n := 1 + rng.Intn(4)
					channelOf = make([]int, chips)
					for c := range channelOf {
						channelOf[c] = c % n
					}
					channelCap = make([]float64, n)
					for i := range channelCap {
						channelCap[i] = 1e9 + 3e9*rng.Float64()
					}
				}
				a.SetChannels(channelOf, channelCap)
			}
			flows := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				// A fresh slice with the same contents as a pooled set.
				flows = append([]Flow(nil), flows...)
			}
			if slices.Equal(flows, prev) {
				hits++
			}
			prev = flows

			fresh := NewAllocator(append([]float64(nil), busCaps...), 3.2e9)
			fresh.SetChannels(channelOf, channelCap)
			want := fresh.Allocate(flows)
			got := a.Allocate(flows)
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: %d rates for %d flows", seed, step, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d step %d flow %d %+v: rate %v, a fresh allocator gives %v",
						seed, step, i, flows[i], got[i], want[i])
				}
			}
		}
		if hits == 0 {
			t.Fatalf("seed %d: no call repeated the previous flows; the cache went untested", seed)
		}
	}
}
