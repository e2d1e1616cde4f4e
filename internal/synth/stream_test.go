package synth

import (
	"errors"
	"testing"

	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// collect drains a streaming generator into a slice.
func collect(t *testing.T, gen func(func(trace.Record) error) error) []trace.Record {
	t.Helper()
	var out []trace.Record
	if err := gen(func(r trace.Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("streaming generator: %v", err)
	}
	return out
}

func requireSameRecords(t *testing.T, want, got []trace.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count: streamed %d, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: streamed %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// TestGenerateStToMatchesGenerateSt pins the streamed St record
// sequence to the in-memory reference, including the mixed-size
// configuration.
func TestGenerateStToMatchesGenerateSt(t *testing.T) {
	for _, cfg := range []StConfig{
		DefaultSt(),
		func() StConfig { c := DefaultSt(); c.Seed = 7; c.Sizes = MixedSizes(); return c }(),
		func() StConfig { c := DefaultSt(); c.DiskFraction = 1; c.Duration = 10 * sim.Millisecond; return c }(),
	} {
		ref, err := GenerateSt(cfg)
		if err != nil {
			t.Fatalf("GenerateSt: %v", err)
		}
		got := collect(t, func(emit func(trace.Record) error) error { return GenerateStTo(cfg, emit) })
		requireSameRecords(t, ref.Records, got)
	}
}

// TestStreamEmitErrors pins error propagation: an emit failure aborts
// generation and surfaces as-is, and invalid configs fail before any
// record is emitted.
func TestStreamEmitErrors(t *testing.T) {
	boom := errors.New("sink full")
	n := 0
	err := GenerateStTo(DefaultSt(), func(trace.Record) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: %v", err)
	}
	if n != 3 {
		t.Fatalf("generation continued after emit error: %d emits", n)
	}
	if err := GenerateDbTo(DefaultDb(), func(trace.Record) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Db emit error not propagated: %v", err)
	}

	bad := DefaultSt()
	bad.RatePerMs = -1
	if err := GenerateStTo(bad, func(trace.Record) error { t.Fatal("emit on invalid config"); return nil }); err == nil {
		t.Fatal("invalid config accepted")
	}
	if err := GenerateDbTo(DbConfig{St: bad}, func(trace.Record) error { t.Fatal("emit on invalid config"); return nil }); err == nil {
		t.Fatal("invalid Db config accepted")
	}
}

// TestGenerateDbToZeroAllocPerRecord guards the streaming merge: after
// its tables are built, GenerateDbTo allocates nothing per record. The
// allocation count of a run must not grow with the trace, in the
// Poisson mode (one pending record) and in the burst mode (a burst of
// pending records per transfer).
func TestGenerateDbToZeroAllocPerRecord(t *testing.T) {
	discard := func(trace.Record) error { return nil }
	burst := DefaultDb()
	burst.ProcPerTransfer = 50
	for _, base := range []DbConfig{DefaultDb(), burst} {
		allocs := func(d sim.Duration) float64 {
			c := base
			c.St.Duration = d
			return testing.AllocsPerRun(3, func() {
				if err := GenerateDbTo(c, discard); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(sim.Millisecond), allocs(8*sim.Millisecond)
		if long > short+8 {
			t.Errorf("ProcPerTransfer=%d: %.0f allocs for 1 ms, %.0f for 8 ms: allocation per record",
				base.ProcPerTransfer, short, long)
		}
	}
}
