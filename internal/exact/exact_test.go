package exact

import (
	"math"
	"testing"
	"testing/quick"

	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

func seqConfig() Config {
	cfg := DefaultConfig()
	cfg.Mapper = sequentialMapper(cfg.Geometry)
	return cfg
}

func TestGoldenSingleTransfer(t *testing.T) {
	cfg := seqConfig()
	res, err := Run(cfg, []Transfer{{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// 1024 requests at one per 7.5 ns beat: the last request arrives at
	// 1023 x 7.5 ns after the wake completes and is served 2.5 ns
	// later. The wake from powerdown is 6 us.
	wake := sim.Time(6 * sim.Microsecond)
	want := wake.Add(1023*7500*sim.Picosecond + 2500*sim.Picosecond)
	got := res.Completion[1]
	if got != want {
		t.Fatalf("completion %v, want %v", got, want)
	}
	// uf = serve/beat = 1/3 exactly over the envelope... the envelope
	// excludes nothing here, so serving/envelope = 1024*2.5ns / span.
	if uf := res.UF(); uf < 0.33 || uf > 0.35 {
		t.Fatalf("uf = %.4f", uf)
	}
	if res.Events == 0 {
		t.Fatal("no events counted")
	}
}

func TestGoldenThreeAlignedStreams(t *testing.T) {
	cfg := seqConfig()
	res, err := Run(cfg, []Transfer{
		{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 1},
		{ID: 2, Arrival: 0, Bus: 1, Page: 100, Pages: 1},
		{ID: 3, Arrival: 0, Bus: 2, Page: 200, Pages: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three beats of 2.5 ns each fill the 7.5 ns gap: uf = 1.
	if uf := res.UF(); math.Abs(uf-1.0) > 0.01 {
		t.Fatalf("uf = %.4f, want 1.0", uf)
	}
	// All three finish within one beat of each other.
	span := res.Completion[3] - res.Completion[1]
	if span < 0 {
		span = -span
	}
	if sim.Duration(span) > 7500*sim.Picosecond {
		t.Fatalf("aligned streams finished %v apart", sim.Duration(span))
	}
}

func TestGoldenServingEnergyExact(t *testing.T) {
	cfg := seqConfig()
	res, err := Run(cfg, []Transfer{
		{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 2},
		{ID: 2, Arrival: sim.Time(30 * sim.Microsecond), Bus: 1, Page: 4096, Pages: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJ := float64(3*8192) / 3.2e9 * energy.RDRAM().Power(energy.Active)
	if got := res.Energy[energy.CatServing]; math.Abs(got-wantJ)/wantJ > 1e-9 {
		t.Fatalf("serving %g J, want %g J", got, wantJ)
	}
}

func TestGoldenSameBusRoundRobin(t *testing.T) {
	// Two same-bus transfers to one chip: the bus alternates their
	// requests; the chip sees a full-rate stream, uf stays 1/3, and
	// both finish around 2x the lone-transfer time.
	cfg := seqConfig()
	res, err := Run(cfg, []Transfer{
		{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 1},
		{ID: 2, Arrival: 0, Bus: 0, Page: 512, Pages: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if uf := res.UF(); uf < 0.33 || uf > 0.35 {
		t.Fatalf("uf = %.4f, want ~1/3", uf)
	}
	lone := sim.Duration(1024 * 7500 * sim.Picosecond)
	got := sim.Duration(res.Completion[2] - sim.Time(6*sim.Microsecond))
	if got < 2*lone-sim.Microsecond || got > 2*lone+sim.Microsecond {
		t.Fatalf("shared-bus completion %v, want ~%v", got, 2*lone)
	}
}

func TestGoldenRejectsBadInput(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Run(cfg, []Transfer{{ID: 1, Bus: 9, Pages: 1}}); err == nil {
		t.Fatal("bad bus accepted")
	}
	if _, err := Run(cfg, []Transfer{{ID: 1, Bus: 0, Pages: 0}}); err == nil {
		t.Fatal("zero pages accepted")
	}
	bad := cfg
	bad.BeatGap = 0
	if _, err := Run(bad, nil); err == nil {
		t.Fatal("zero beat accepted")
	}
}

// Property: the golden model's serving energy is exactly
// bytes/Rm x P_active for arbitrary small scenarios, and total energy
// stays within the power envelope.
func TestQuickGoldenConservation(t *testing.T) {
	f := func(n8, stagger8 uint8) bool {
		cfg := seqConfig()
		n := 1 + int(n8)%5
		var xs []Transfer
		totalBytes := 0.0
		for i := 0; i < n; i++ {
			xs = append(xs, Transfer{
				ID: i, Arrival: sim.Time(i*int(stagger8)) * sim.Time(sim.Microsecond),
				Bus: i % 3, Page: memsys.PageID(i * 256), Pages: 1,
			})
			totalBytes += 8192
		}
		res, err := Run(cfg, xs)
		if err != nil {
			return false
		}
		wantServing := totalBytes / 3.2e9 * energy.RDRAM().Power(energy.Active)
		if math.Abs(res.Energy[energy.CatServing]-wantServing)/wantServing > 1e-9 {
			return false
		}
		return len(res.Completion) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sequentialMapper fills chips one at a time with consecutive pages:
// a topology of one chip per channel with a chip-sized stripe.
func sequentialMapper(g memsys.Geometry) memsys.Mapper {
	return memsys.Topology{Channels: g.NumChips, StripePages: g.PagesPerChip()}.Mapper(g)
}
