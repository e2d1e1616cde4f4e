package bus

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refAllocate is the map-based progressive filling the dense
// allocator replaced, kept verbatim in arithmetic as the reference the
// dense scratch must reproduce bit for bit. channelOf == nil disables
// the channel constraint.
func refAllocate(busCap []float64, chipCap float64, channelOf []int, channelCap []float64, flows []Flow) []float64 {
	rates := make([]float64, len(flows))
	if len(flows) == 0 {
		return rates
	}
	remBus := append([]float64(nil), busCap...)
	busCount := make([]int, len(busCap))
	remChip := map[int]float64{}
	chipCount := map[int]int{}
	channels := channelOf != nil
	var remChan []float64
	var chanCount []int
	if channels {
		remChan = append([]float64(nil), channelCap...)
		chanCount = make([]int, len(channelCap))
	}
	for _, f := range flows {
		busCount[f.Bus]++
		chipCount[f.Chip]++
		remChip[f.Chip] = chipCap
		if channels {
			chanCount[channelOf[f.Chip]]++
		}
	}
	frozen := make([]bool, len(flows))
	remaining := len(flows)
	for remaining > 0 {
		share := -1.0
		for b, n := range busCount {
			if n == 0 {
				continue
			}
			if s := remBus[b] / float64(n); share < 0 || s < share {
				share = s
			}
		}
		for c, n := range chipCount {
			if n == 0 {
				continue
			}
			if s := remChip[c] / float64(n); share < 0 || s < share {
				share = s
			}
		}
		if channels {
			for c, n := range chanCount {
				if n == 0 {
					continue
				}
				if s := remChan[c] / float64(n); share < 0 || s < share {
					share = s
				}
			}
		}
		progressed := false
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			rates[i] += share
			remBus[f.Bus] -= share
			remChip[f.Chip] -= share
			if channels {
				remChan[channelOf[f.Chip]] -= share
			}
		}
		const eps = 1e-3
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			if remBus[f.Bus] <= eps || remChip[f.Chip] <= eps ||
				(channels && remChan[channelOf[f.Chip]] <= eps) {
				frozen[i] = true
				remaining--
				busCount[f.Bus]--
				chipCount[f.Chip]--
				if channels {
					chanCount[channelOf[f.Chip]]--
				}
				progressed = true
			}
		}
		if !progressed {
			for i := range flows {
				if !frozen[i] {
					frozen[i] = true
					remaining--
				}
			}
		}
	}
	return rates
}

// TestAllocateMatchesMapReference drives one long-lived allocator
// through random flow sets — chip IDs past 64, sparse IDs, repeated
// chips, with and without channel caps — and requires every rate to be
// bit-identical to the map-based reference. Reusing the allocator
// across sets also checks that the dense scratch of one call never
// leaks into the next.
func TestAllocateMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		nBuses := 1 + rng.Intn(5)
		caps := make([]float64, nBuses)
		for i := range caps {
			caps[i] = 0.5e9 + rng.Float64()*3e9
		}
		chipCap := 0.5e9 + rng.Float64()*4e9
		maxChip := []int{4, 64, 200, 5000}[rng.Intn(4)]
		a := NewAllocator(caps, chipCap)

		var channelOf []int
		var channelCap []float64
		if trial%2 == 1 {
			nChan := 1 + rng.Intn(4)
			channelOf = make([]int, maxChip)
			for c := range channelOf {
				channelOf[c] = c % nChan
			}
			channelCap = make([]float64, nChan)
			for i := range channelCap {
				channelCap[i] = 1e9 + rng.Float64()*6e9
			}
			a.SetChannels(channelOf, channelCap)
		}

		for set := 0; set < 40; set++ {
			// A small pool of sparse chip IDs makes repeats likely.
			pool := make([]int, 1+rng.Intn(6))
			for i := range pool {
				pool[i] = rng.Intn(maxChip)
			}
			flows := make([]Flow, rng.Intn(30))
			for i := range flows {
				flows[i] = Flow{Bus: rng.Intn(nBuses), Chip: pool[rng.Intn(len(pool))]}
			}
			want := refAllocate(caps, chipCap, channelOf, channelCap, flows)
			got := a.Allocate(flows)
			if len(got) != len(want) {
				t.Fatalf("trial %d set %d: %d rates, want %d", trial, set, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d set %d flow %d %+v: rate %v, reference %v",
						trial, set, i, flows[i], got[i], want[i])
				}
			}
		}
	}
}

// TestAllocatePanicsOnNegativeChip checks that a negative chip fails
// loudly, naming the chip, and that a call cut short by the panic
// leaves no stale per-chip state behind for the next call.
func TestAllocatePanicsOnNegativeChip(t *testing.T) {
	// Chips are the bottleneck here, so stale counts would show.
	a := NewAllocator([]float64{4e9, 4e9, 4e9}, 3e9)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected panic for a negative chip")
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "chip -7") {
				t.Fatalf("panic %q does not name the chip", msg)
			}
		}()
		a.Allocate([]Flow{{Bus: 1, Chip: 0}, {Bus: 0, Chip: -7}})
	}()
	flows := []Flow{{Bus: 0, Chip: 0}, {Bus: 1, Chip: 0}, {Bus: 2, Chip: 3}}
	want := refAllocate(a.busCap, a.chipCap, nil, nil, flows)
	for i, got := range a.Allocate(flows) {
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("after the panic, flow %d rate %v, reference %v", i, got, want[i])
		}
	}
}

// TestAllocateZeroAlloc is the allocation guard for the allocator:
// once its scratch covers the flow count and chip IDs in use, a call
// allocates nothing, with or without the channel constraint.
func TestAllocateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := make([][]Flow, 8)
	for i := range sets {
		sets[i] = make([]Flow, 1+rng.Intn(16))
		for j := range sets[i] {
			sets[i][j] = Flow{Bus: rng.Intn(3), Chip: rng.Intn(96)}
		}
	}
	for _, channels := range []bool{false, true} {
		a := pcixAlloc(3)
		if channels {
			channelOf := make([]int, 96)
			for c := range channelOf {
				channelOf[c] = c / 24
			}
			a.SetChannels(channelOf, []float64{4e9, 4e9, 4e9, 4e9})
		}
		for _, s := range sets {
			a.Allocate(s) // warm the scratch
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			a.Allocate(sets[i%len(sets)])
			i++
		})
		if allocs != 0 {
			t.Fatalf("channels=%v: Allocate allocated %.1f allocs/op, want 0", channels, allocs)
		}
	}
}
