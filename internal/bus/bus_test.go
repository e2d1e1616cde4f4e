package bus

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dmamem/internal/sim"
)

func TestPCIXBandwidth(t *testing.T) {
	// 8 bytes per 12 memory cycles (7.5 ns) = 1.0667 GB/s; three such
	// buses exactly saturate one 3.2 GB/s chip.
	if math.Abs(3*PCIXBandwidth-3.2e9) > 1 {
		t.Fatalf("3x PCI-X = %g, want 3.2e9", 3*PCIXBandwidth)
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Count != 3 {
		t.Fatalf("Count = %d, want 3", c.Count)
	}
	if got := c.BeatGap(); got != 7500*sim.Picosecond {
		t.Fatalf("BeatGap = %v, want 7.5ns", got)
	}
}

func TestConfigValidate(t *testing.T) {
	if (Config{Count: 0, Bandwidth: 1}).Validate() == nil {
		t.Error("zero count accepted")
	}
	for _, bw := range []float64{0, math.NaN(), math.Inf(1)} {
		if (Config{Count: 1, Bandwidth: bw}).Validate() == nil {
			t.Errorf("bandwidth %v accepted", bw)
		}
	}
}

func TestGatherTarget(t *testing.T) {
	cases := []struct {
		chip, bus float64
		want      int
	}{
		{3.2e9, PCIXBandwidth, 3},
		{3.2e9, 0.5e9, 7}, // ceil(6.4)
		{3.2e9, 2e9, 2},
		{3.2e9, 3.2e9, 1},
		{3.2e9, 4e9, 1}, // bus faster than chip
	}
	for _, c := range cases {
		if got := GatherTarget(c.chip, c.bus); got != c.want {
			t.Errorf("GatherTarget(%g, %g) = %d, want %d", c.chip, c.bus, got, c.want)
		}
	}
}

func TestGatherTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GatherTarget(0, 1)
}

func pcixAlloc(nBuses int) *Allocator {
	caps := make([]float64, nBuses)
	for i := range caps {
		caps[i] = PCIXBandwidth
	}
	return NewAllocator(caps, 3.2e9)
}

func TestAllocateEmpty(t *testing.T) {
	a := pcixAlloc(3)
	if got := a.Allocate(nil); len(got) != 0 {
		t.Fatalf("empty allocation returned %v", got)
	}
}

func TestAllocateSingleFlow(t *testing.T) {
	a := pcixAlloc(3)
	rates := a.Allocate([]Flow{{Bus: 0, Chip: 5}})
	if math.Abs(rates[0]-PCIXBandwidth) > 1 {
		t.Fatalf("single flow rate = %g, want bus bandwidth", rates[0])
	}
}

func TestAllocateThreeBusesOneChip(t *testing.T) {
	// Three buses into one chip: exactly saturates the chip; each flow
	// gets its full bus.
	a := pcixAlloc(3)
	rates := a.Allocate([]Flow{{0, 7}, {1, 7}, {2, 7}})
	sum := 0.0
	for _, r := range rates {
		if math.Abs(r-PCIXBandwidth) > 1 {
			t.Fatalf("rates = %v", rates)
		}
		sum += r
	}
	if math.Abs(sum-3.2e9) > 1 {
		t.Fatalf("chip total = %g", sum)
	}
}

func TestAllocateChipBottleneck(t *testing.T) {
	// Four 2 GB/s buses into one 3.2 GB/s chip: chip is the bottleneck,
	// each flow gets 0.8 GB/s.
	caps := []float64{2e9, 2e9, 2e9, 2e9}
	a := NewAllocator(caps, 3.2e9)
	rates := a.Allocate([]Flow{{0, 0}, {1, 0}, {2, 0}, {3, 0}})
	for _, r := range rates {
		if math.Abs(r-0.8e9) > 1 {
			t.Fatalf("rates = %v, want 0.8e9 each", rates)
		}
	}
}

func TestAllocateBusSharing(t *testing.T) {
	// Two streams on one bus to different chips split the bus.
	a := pcixAlloc(1)
	rates := a.Allocate([]Flow{{0, 1}, {0, 2}})
	for _, r := range rates {
		if math.Abs(r-PCIXBandwidth/2) > 1 {
			t.Fatalf("rates = %v, want half bus each", rates)
		}
	}
}

func TestAllocateAsymmetric(t *testing.T) {
	// Bus 0 carries two flows, bus 1 one flow, all to different chips:
	// flows on bus 0 get half a bus, flow on bus 1 a full bus.
	a := pcixAlloc(2)
	rates := a.Allocate([]Flow{{0, 1}, {0, 2}, {1, 3}})
	if math.Abs(rates[0]-PCIXBandwidth/2) > 1 || math.Abs(rates[1]-PCIXBandwidth/2) > 1 {
		t.Fatalf("bus-0 flows: %v", rates)
	}
	if math.Abs(rates[2]-PCIXBandwidth) > 1 {
		t.Fatalf("bus-1 flow: %v", rates)
	}
}

func TestAllocateMaxMinRedistribution(t *testing.T) {
	// One fast bus (3 GB/s) and one slow bus (1 GB/s) into a 3.2 GB/s
	// chip. Max-min: slow flow frozen at 1 GB/s, fast flow takes the
	// remaining 2.2 GB/s.
	a := NewAllocator([]float64{3e9, 1e9}, 3.2e9)
	rates := a.Allocate([]Flow{{0, 0}, {1, 0}})
	if math.Abs(rates[1]-1e9) > 1e3 {
		t.Fatalf("slow flow = %g, want 1e9", rates[1])
	}
	if math.Abs(rates[0]-2.2e9) > 1e3 {
		t.Fatalf("fast flow = %g, want 2.2e9", rates[0])
	}
}

func TestAllocateChannelCap(t *testing.T) {
	// Two 2 GB/s buses into two different 3.2 GB/s chips of the same
	// channel, channel capped at 3 GB/s: the channel is the bottleneck
	// and the flows split it evenly.
	a := NewAllocator([]float64{2e9, 2e9}, 3.2e9)
	a.SetChannels([]int{0, 0}, []float64{3e9})
	rates := a.Allocate([]Flow{{Bus: 0, Chip: 0}, {Bus: 1, Chip: 1}})
	for _, r := range rates {
		if math.Abs(r-1.5e9) > 1e3 {
			t.Fatalf("rates = %v, want 1.5e9 each", rates)
		}
	}
}

func TestAllocateChannelIndependence(t *testing.T) {
	// Chips 0 and 1 on different channels: each flow is limited only by
	// its own bus, exactly as without the channel constraint.
	a := NewAllocator([]float64{2e9, 2e9}, 3.2e9)
	a.SetChannels([]int{0, 1}, []float64{3e9, 3e9})
	rates := a.Allocate([]Flow{{Bus: 0, Chip: 0}, {Bus: 1, Chip: 1}})
	for _, r := range rates {
		if math.Abs(r-2e9) > 1e3 {
			t.Fatalf("rates = %v, want full bus each", rates)
		}
	}
}

func TestAllocateChannelUnsetMatchesLegacy(t *testing.T) {
	// Setting and clearing the channel constraint restores the exact
	// legacy rates (same arithmetic, bit for bit).
	flows := []Flow{{0, 0}, {1, 0}, {0, 1}, {2, 5}}
	legacy := NewAllocator([]float64{3e9, 1e9, 2e9}, 3.2e9)
	want := append([]float64(nil), legacy.Allocate(flows)...)

	a := NewAllocator([]float64{3e9, 1e9, 2e9}, 3.2e9)
	a.SetChannels([]int{0, 0, 1, 1, 2, 2}, []float64{9e9, 9e9, 9e9})
	a.Allocate(flows)
	a.SetChannels(nil, nil)
	got := a.Allocate(flows)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flow %d: rate %g after channel round-trip, want %g", i, got[i], want[i])
		}
	}
}

func TestSetChannelsPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(a *Allocator)
	}{
		{"nonpositive channel cap", func(a *Allocator) {
			a.SetChannels([]int{0}, []float64{0})
		}},
		{"chip mapped out of range", func(a *Allocator) {
			a.SetChannels([]int{2}, []float64{1e9, 1e9})
		}},
		{"negative channel", func(a *Allocator) {
			a.SetChannels([]int{-1}, []float64{1e9})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.f(pcixAlloc(1))
		})
	}
}

func TestAllocatePanicsOnBadBus(t *testing.T) {
	a := pcixAlloc(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range bus")
		}
	}()
	a.Allocate([]Flow{{Bus: 3, Chip: 0}})
}

func TestNewAllocatorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewAllocator(nil, 1) },
		func() { NewAllocator([]float64{0}, 1) },
		func() { NewAllocator([]float64{1}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: allocations respect every capacity constraint, give every
// flow a positive rate, and are max-min fair (no flow can be increased
// without decreasing a flow with an equal or smaller rate — checked via
// the bottleneck condition: every flow has at least one saturated
// resource OR shares a resource only with larger flows... the standard
// certificate: each flow's rate equals the fair share of some saturated
// resource it crosses).
func TestQuickAllocateInvariants(t *testing.T) {
	f := func(seed int64, nf uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nBuses := 1 + rng.Intn(4)
		nChips := 1 + rng.Intn(6)
		caps := make([]float64, nBuses)
		for i := range caps {
			caps[i] = 0.5e9 + rng.Float64()*3e9
		}
		chipCap := 0.5e9 + rng.Float64()*4e9
		a := NewAllocator(caps, chipCap)
		flows := make([]Flow, 1+int(nf)%24)
		for i := range flows {
			flows[i] = Flow{Bus: rng.Intn(nBuses), Chip: rng.Intn(nChips)}
		}
		rates := a.Allocate(flows)

		const tol = 1.0 // bytes/s
		busLoad := make([]float64, nBuses)
		chipLoad := map[int]float64{}
		for i, f := range flows {
			if rates[i] <= 0 {
				return false
			}
			busLoad[f.Bus] += rates[i]
			chipLoad[f.Chip] += rates[i]
		}
		for b, l := range busLoad {
			if l > caps[b]+tol {
				return false
			}
		}
		for _, l := range chipLoad {
			if l > chipCap+tol {
				return false
			}
		}
		// Bottleneck certificate: every flow crosses at least one
		// resource that is saturated (within tolerance) and on which it
		// has a maximal rate.
		for i, fl := range flows {
			busSat := busLoad[fl.Bus] >= caps[fl.Bus]-tol
			chipSat := chipLoad[fl.Chip] >= chipCap-tol
			if !busSat && !chipSat {
				return false
			}
			ok := false
			if busSat {
				maxOnBus := 0.0
				for j, o := range flows {
					if o.Bus == fl.Bus && rates[j] > maxOnBus {
						maxOnBus = rates[j]
					}
				}
				if rates[i] >= maxOnBus-tol {
					ok = true
				}
			}
			if !ok && chipSat {
				maxOnChip := 0.0
				for j, o := range flows {
					if o.Chip == fl.Chip && rates[j] > maxOnChip {
						maxOnChip = rates[j]
					}
				}
				if rates[i] >= maxOnChip-tol {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: allocation is deterministic.
func TestQuickAllocateDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := pcixAlloc(3)
		flows := make([]Flow, 1+rng.Intn(12))
		for i := range flows {
			flows[i] = Flow{Bus: rng.Intn(3), Chip: rng.Intn(8)}
		}
		r1 := append([]float64(nil), a.Allocate(flows)...)
		r2 := a.Allocate(flows)
		for i := range r1 {
			if r1[i] != r2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocate(b *testing.B) {
	a := pcixAlloc(3)
	flows := make([]Flow, 16)
	rng := rand.New(rand.NewSource(1))
	for i := range flows {
		flows[i] = Flow{Bus: rng.Intn(3), Chip: rng.Intn(32)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Allocate(flows)
	}
}
