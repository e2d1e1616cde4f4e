package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

func TestReportTotalsAndSavings(t *testing.T) {
	base := &Report{Scheme: "baseline", SimulatedTime: 1000 * sim.Millisecond}
	base.Energy[energy.CatServing] = 0.2
	base.Energy[energy.CatIdleDMA] = 0.6
	base.Energy[energy.CatLowPower] = 0.2

	ta := &Report{Scheme: "dma-ta", SimulatedTime: 1000 * sim.Millisecond}
	ta.Energy[energy.CatServing] = 0.2
	ta.Energy[energy.CatIdleDMA] = 0.2
	ta.Energy[energy.CatLowPower] = 0.2

	if got := base.TotalEnergy(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("total = %g", got)
	}
	if got := ta.Savings(base); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("savings = %g, want 0.4", got)
	}
	if got := base.MeanPower(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("mean power = %g", got)
	}
	if base.String() == "" {
		t.Fatal("empty string")
	}
	empty := &Report{}
	if empty.Savings(empty) != 0 || empty.MeanPower() != 0 {
		t.Fatal("zero-energy edge cases")
	}
}

func TestClientDegradation(t *testing.T) {
	cal := Calibration{
		MeanClientResponse:  sim.Duration(1 * sim.Millisecond),
		TransfersPerRequest: 2,
	}
	ref := &Report{MeanServiceTime: sim.Duration(10 * sim.Microsecond)}
	r := &Report{MeanServiceTime: sim.Duration(60 * sim.Microsecond)}
	// Added 50 us per transfer, 2 transfers per request, over 1 ms
	// response: 10%.
	if got := r.ClientDegradation(ref, cal); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("client degradation = %g", got)
	}
	// Faster than reference clamps to zero.
	if got := ref.ClientDegradation(r, cal); got != 0 {
		t.Fatalf("negative degradation not clamped: %g", got)
	}
}

func validCal() Calibration {
	return Calibration{
		MeanClientResponse:      sim.Duration(1 * sim.Millisecond),
		TransfersPerRequest:     1.5,
		MeanRequestsPerTransfer: 2867,
		T:                       7500 * sim.Picosecond,
	}
}

func TestMuTransform(t *testing.T) {
	cal := validCal()
	mu, err := cal.Mu(0.10)
	if err != nil {
		t.Fatal(err)
	}
	// budget = 0.1*1ms/1.5 = 66.7us; per request = 23.3ns; mu = 3.1.
	want := (0.1 * 1e-3 / 1.5) / 2867 / 7.5e-9
	if math.Abs(mu-want)/want > 1e-9 {
		t.Fatalf("mu = %g, want %g", mu, want)
	}
	if mu < 1 || mu > 10 {
		t.Fatalf("mu = %g outside plausible range for data-server traces", mu)
	}
	// Zero CP-Limit means zero slack.
	if mu0, _ := cal.Mu(0); mu0 != 0 {
		t.Fatalf("mu(0) = %g", mu0)
	}
	if _, err := cal.Mu(-0.1); err == nil {
		t.Fatal("negative limit accepted")
	}
}

func TestCalibrationValidate(t *testing.T) {
	bad := validCal()
	bad.MeanClientResponse = 0
	if bad.validate() == nil {
		t.Error("zero response accepted")
	}
	bad = validCal()
	bad.TransfersPerRequest = 0
	if bad.validate() == nil {
		t.Error("zero transfers accepted")
	}
	bad = validCal()
	bad.MeanRequestsPerTransfer = -1
	if bad.validate() == nil {
		t.Error("negative requests accepted")
	}
	bad = validCal()
	bad.T = 0
	if bad.validate() == nil {
		t.Error("zero T accepted")
	}
}

// Property: mu is linear in the CP-Limit.
func TestQuickMuLinear(t *testing.T) {
	cal := validCal()
	f := func(limit8 uint8) bool {
		l := float64(limit8) / 255.0
		m1, err1 := cal.Mu(l)
		m2, err2 := cal.Mu(2 * l)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(m2-2*m1) < 1e-9*(1+m2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationStats(t *testing.T) {
	var s DurationStats
	if s.Mean() != 0 || s.Max() != 0 || s.Count() != 0 || s.Percentile(0.5) != 0 {
		t.Fatal("empty stats not zero")
	}
	for _, v := range []sim.Duration{50, 10, 40, 20, 30} {
		s.Add(v)
	}
	if s.Count() != 5 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 30 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 50 {
		t.Fatalf("max = %v", s.Max())
	}
	if got := s.Percentile(0.5); got != 30 {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(1.0); got != 50 {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Percentile(0.2); got != 10 {
		t.Fatalf("p20 = %v", got)
	}
}

// TestPercentileMatchesSort holds the in-place selection to the
// sort-based nearest-rank reference it replaced: random sizes,
// heavy duplicates, sorted and reversed runs, n = 1, and p at 1/n,
// 0.5, 0.95, 1 and random points, each asked of the same (reordered)
// stats in turn.
func TestPercentileMatchesSort(t *testing.T) {
	ref := func(vals []sim.Duration, p float64) sim.Duration {
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		rank := int(math.Ceil(p*float64(len(sorted)))) - 1
		if rank < 0 {
			rank = 0
		}
		return sorted[rank]
	}
	rng := rand.New(rand.NewSource(1))
	shapes := []func(i, n int) sim.Duration{
		func(i, n int) sim.Duration { return sim.Duration(rng.Int63n(1 << 40)) },
		func(i, n int) sim.Duration { return sim.Duration(rng.Intn(4)) },
		func(i, n int) sim.Duration { return 7 },
		func(i, n int) sim.Duration { return sim.Duration(i) },
		func(i, n int) sim.Duration { return sim.Duration(n - i) },
		func(i, n int) sim.Duration { return sim.Duration(min(i, n-i)) },
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(3000)
		if trial%10 == 0 {
			n = 1 + trial%3
		}
		shape := shapes[trial%len(shapes)]
		var s DurationStats
		vals := make([]sim.Duration, n)
		for i := range vals {
			vals[i] = shape(i, n)
			s.Add(vals[i])
		}
		for _, p := range []float64{1 / float64(n), 0.5, 0.95, 1, rng.Float64() + 1e-9, rng.Float64()*0.01 + 1e-9} {
			p = min(p, 1)
			if got, want := s.Percentile(p), ref(vals, p); got != want {
				t.Fatalf("trial %d n=%d p=%g: got %v, sort gives %v", trial, n, p, got, want)
			}
		}
		if s.Count() != n || s.Max() != slices.Max(vals) {
			t.Fatalf("trial %d: selection changed the multiset", trial)
		}
	}
}

func TestDurationStatsPanics(t *testing.T) {
	var s DurationStats
	s.Add(1)
	for _, f := range []func(){
		func() { s.Add(-1) },
		func() { s.Percentile(0) },
		func() { s.Percentile(1.5) },
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

// Property: mean lies between min and max; percentiles are monotone.
func TestQuickDurationStats(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s DurationStats
		min := sim.Duration(math.MaxInt64)
		for _, v := range raw {
			d := sim.Duration(v)
			s.Add(d)
			if d < min {
				min = d
			}
		}
		m := s.Mean()
		if m < min || m > s.Max() {
			return false
		}
		return s.Percentile(0.25) <= s.Percentile(0.5) &&
			s.Percentile(0.5) <= s.Percentile(0.95) &&
			s.Percentile(0.95) <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
