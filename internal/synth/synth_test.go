package synth

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.next() != c.next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(7)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %g, want ~0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	r := NewRNG(1)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("only saw %d of 7 values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestExpMean(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(2.5)
	}
	if mean := sum / n; math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("exp mean = %g, want ~2.5", mean)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	r.Exp(0)
}

func TestPerm(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfBasics(t *testing.T) {
	z := NewZipf(100, 1.0)
	if z.n != 100 {
		t.Fatalf("N = %d", z.n)
	}
	// Probabilities must decrease with rank and sum to 1.
	sum := 0.0
	prev := math.Inf(1)
	for i := 0; i < 100; i++ {
		p := prob(z, i)
		if p > prev {
			t.Fatalf("probability increased at rank %d", i)
		}
		prev = p
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %g", sum)
	}
	// Rank 0 of Zipf(1) over 100 elements has p = 1/H(100) ~ 0.1928.
	if math.Abs(prob(z, 0)-0.1928) > 0.001 {
		t.Fatalf("p(0) = %g", prob(z, 0))
	}
}

// refCum is the reference every kept table must match bit for bit: the
// full cumulative Zipf table, with math.Pow for every skew (1 included)
// and the last rank forced to 1.
func refCum(n int, alpha float64) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), alpha)
		cum[i] = total
	}
	for i := range cum {
		cum[i] *= 1 / total
	}
	cum[n-1] = 1
	return cum
}

// TestZipfAlphaOneExact holds every table NewZipf keeps, the compact
// alpha = 1 form included, to the full math.Pow table bit for bit:
// each rank's cumulative value, and the rank Sample returns at every
// cumulative value and at both of its float64 neighbours. The sizes
// straddle the block boundaries and reach OLTP-St's 500,000 objects.
func TestZipfAlphaOneExact(t *testing.T) {
	for _, alpha := range []float64{1, 0.75, 0} {
		for _, n := range zipfSizes {
			z, ref := NewZipf(n, alpha), refCum(n, alpha)
			if z.n != n {
				t.Fatalf("alpha %g: N() = %d, want %d", alpha, z.n, n)
			}
			for i, want := range ref {
				if got := z.cumAt(i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("alpha %g, n %d, rank %d: cumulative %v, full table %v", alpha, n, i, got, want)
				}
				for _, u := range []float64{math.Nextafter(want, 0), want, math.Nextafter(want, 2)} {
					if u >= 1 {
						continue // Float64 never draws 1 or more
					}
					if got, want := z.rank(u), sort.SearchFloat64s(ref, u); got != want {
						t.Fatalf("alpha %g, n %d, u %v: rank %d, full table %d", alpha, n, u, got, want)
					}
				}
			}
			if got := z.rank(0); got != 0 {
				t.Fatalf("alpha %g, n %d: rank(0) = %d", alpha, n, got)
			}
		}
	}
}

// zipfSizes are the table sizes the exactness tests cover: both sides
// of the first block boundaries, the Synthetic traces' 131,072 pages
// and OLTP-St's 500,000 objects.
var zipfSizes = []int{1, zipfBlock - 1, zipfBlock, zipfBlock + 1, 2*zipfBlock - 1, 2 * zipfBlock, 2*zipfBlock + 1, 40000, 131072, 500000}

// unguidedRank is the search the guide narrows, run over the whole
// table.
func unguidedRank(z *Zipf, u float64) int { return z.replay(z.search(0, z.last(), u), u) }

// TestZipfGuideMatchesSearch holds the guided search to the unguided
// one, for every table TestZipfAlphaOneExact covers, at every bucket
// edge k/zipfGuide and at both of its float64 neighbours, where an
// off-by-one guide entry or bucket would first show.
func TestZipfGuideMatchesSearch(t *testing.T) {
	for _, alpha := range []float64{1, 0.75, 0} {
		for _, n := range zipfSizes {
			z := NewZipf(n, alpha)
			if len(z.guide) != zipfGuide+1 {
				t.Fatalf("alpha %g, n %d: guide of %d entries", alpha, n, len(z.guide))
			}
			for k := 0; k <= zipfGuide; k++ {
				edge := float64(k) / zipfGuide
				for _, u := range []float64{math.Nextafter(edge, -1), edge, math.Nextafter(edge, 2)} {
					if u < 0 || u >= 1 {
						continue // Float64 draws from [0, 1)
					}
					if got, want := z.rank(u), unguidedRank(z, u); got != want {
						t.Fatalf("alpha %g, n %d, u %v (bucket edge %d): rank %d, unguided %d", alpha, n, u, k, got, want)
					}
				}
			}
		}
	}
}

// TestPermMatchesIntnLoop holds Perm to the Fisher-Yates loop it
// inlines, drawing through Intn: the same permutation, and the
// generator left in the same state.
func TestPermMatchesIntnLoop(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 100, 40000} {
		for seed := uint64(1); seed <= 3; seed++ {
			r, ref := NewRNG(seed), NewRNG(seed)
			got := r.Perm(n)
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			for i := n - 1; i > 0; i-- {
				j := ref.Intn(i + 1)
				want[i], want[j] = want[j], want[i]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("n %d, seed %d: Perm differs from the Intn loop", n, seed)
			}
			if r.next() != ref.next() {
				t.Fatalf("n %d, seed %d: Perm left the generator in another state", n, seed)
			}
		}
	}
}

// TestSharedZipf checks the process-level table cache from many
// goroutines at once (run it with -race): one (n, alpha) is built once
// and every caller gets the same table; past zipfTables.Max keys, each
// call builds its own.
func TestSharedZipf(t *testing.T) {
	kept := func() int {
		zipfTables.mu.Lock()
		defer zipfTables.mu.Unlock()
		return len(zipfTables.m)
	}
	clearTables := func() {
		zipfTables.mu.Lock()
		clear(zipfTables.m)
		zipfTables.mu.Unlock()
	}
	clearTables()
	t.Cleanup(clearTables)

	const goroutines = 8
	got := make([][2]*Zipf, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = [2]*Zipf{NewZipf(131072, 1), NewZipf(40000, 0.75)}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d got tables %p, goroutine 0 %p", g, got[g], got[0])
		}
	}
	if NewZipf(40000, 0.75) != got[0][1] {
		t.Fatal("a later call rebuilt a shared table")
	}
	if NewZipf(40000, 0) != NewZipf(40000, math.Copysign(0, -1)) {
		t.Fatal("alpha -0 and 0 keep two tables")
	}

	for n := 1; kept() < zipfTables.Max; n++ {
		NewZipf(n, 1)
	}
	if NewZipf(99, 1) == NewZipf(99, 1) {
		t.Errorf("past %d keys, a new key was shared", zipfTables.Max)
	}
	if NewZipf(131072, 1) != got[0][0] {
		t.Error("a full cache lost a table it held")
	}
}

func TestZipfSampleDistribution(t *testing.T) {
	z := NewZipf(50, 1.0)
	r := NewRNG(11)
	counts := make([]int, 50)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	// Empirical frequency of rank 0 should match its probability.
	want := prob(z, 0)
	got := float64(counts[0]) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("rank-0 freq = %g, want ~%g", got, want)
	}
	// Heavier ranks must (statistically) dominate much lighter ones.
	if counts[0] < counts[40] {
		t.Fatal("rank 0 less frequent than rank 40")
	}
}

func TestZipfUniform(t *testing.T) {
	z := NewZipf(10, 0) // alpha 0 = uniform
	for i := 1; i < 10; i++ {
		if math.Abs(prob(z, i)-0.1) > 1e-9 {
			t.Fatalf("uniform prob(%d) = %g", i, prob(z, i))
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(0, 1) },
		func() { NewZipf(10, -1) },
		func() { NewZipf(10, math.NaN()) },
		func() { NewZipf(10, math.Inf(1)) },
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

// Property: Zipf samples are always valid ranks.
func TestQuickZipfRange(t *testing.T) {
	f := func(seed uint64, n16 uint16) bool {
		n := 1 + int(n16)%1000
		z := NewZipf(n, 1.0)
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			s := z.Sample(r)
			if s < 0 || s >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateStProperties(t *testing.T) {
	cfg := DefaultSt()
	cfg.Duration = 20 * sim.Millisecond
	tr, err := GenerateSt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTrace(t, tr)
	s := trace.Analyze(tr)
	// Poisson(100/ms) over 20 ms: expect ~2000 transfers; allow 4 sigma.
	if s.DMATransfers < 1800 || s.DMATransfers > 2200 {
		t.Fatalf("transfers = %d, want ~2000", s.DMATransfers)
	}
	if s.ProcAccesses != 0 {
		t.Fatal("storage trace should have no processor accesses")
	}
	// Disk fraction ~27%.
	diskFrac := float64(s.DiskTransfers) / float64(s.DMATransfers)
	if math.Abs(diskFrac-0.27) > 0.05 {
		t.Fatalf("disk fraction = %g", diskFrac)
	}
	// Zipf(1) popularity skew: top 20%% of touched pages should carry
	// well over 20%% of accesses.
	if share := s.PopularityCDF(5)[0].AccessFrac; share < 0.4 {
		t.Fatalf("top-20%% share = %g, want skewed", share)
	}
	// Bus spread: all three buses used.
	buses := map[uint8]bool{}
	for _, r := range tr.Records {
		buses[r.Bus] = true
		if int(r.Page)+int(r.Pages) > cfg.Pages {
			t.Fatalf("record overruns page population: %+v", r)
		}
	}
	if len(buses) != 3 {
		t.Fatalf("used %d buses", len(buses))
	}
}

func TestGenerateStDeterminism(t *testing.T) {
	cfg := DefaultSt()
	cfg.Duration = 5 * sim.Millisecond
	a, err := GenerateSt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatal("nondeterministic record count")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGenerateStValidation(t *testing.T) {
	bad := DefaultSt()
	bad.RatePerMs = 0
	if _, err := GenerateSt(bad); err == nil {
		t.Error("zero rate accepted")
	}
	bad = DefaultSt()
	bad.Duration = 0
	if _, err := GenerateSt(bad); err == nil {
		t.Error("zero duration accepted")
	}
	bad = DefaultSt()
	bad.DiskFraction = 1.5
	if _, err := GenerateSt(bad); err == nil {
		t.Error("bad disk fraction accepted")
	}
	bad = DefaultSt()
	bad.Pages = 0
	if _, err := GenerateSt(bad); err == nil {
		t.Error("zero pages accepted")
	}
	for _, alpha := range badAlphas {
		bad = DefaultSt()
		bad.Alpha = alpha
		if _, err := GenerateSt(bad); err == nil || !strings.Contains(err.Error(), "Alpha") {
			t.Errorf("Alpha %g: error %v, want one naming Alpha", alpha, err)
		}
		if err := GenerateDbTo(DbOf(bad), func(trace.Record) error { return nil }); err == nil || !strings.Contains(err.Error(), "Alpha") {
			t.Errorf("Synthetic-Db Alpha %g: error %v, want one naming Alpha", alpha, err)
		}
	}
}

// TestStConfigRejectsBadSizes checks that Synthetic-St and
// Synthetic-Db reject a bad size mixture with an error naming Sizes.
func TestStConfigRejectsBadSizes(t *testing.T) {
	small := DefaultSt()
	small.Pages = 4
	for name, tc := range map[string]struct {
		c     StConfig
		sizes []SizeClass
	}{
		"empty":                {DefaultSt(), []SizeClass{}},
		"zero pages":           {DefaultSt(), []SizeClass{{0, 1}}},
		"negative pages":       {DefaultSt(), []SizeClass{{1, 1}, {-2, 1}}},
		"pages past uint16":    {DefaultSt(), []SizeClass{{1 << 16, 1}}},
		"pages past Pages":     {small, []SizeClass{{5, 1}}},
		"NaN weight":           {DefaultSt(), []SizeClass{{1, 1}, {2, math.NaN()}}},
		"zero weight":          {DefaultSt(), []SizeClass{{1, 0}}},
		"negative weight":      {DefaultSt(), []SizeClass{{1, -1}}},
		"infinite weight":      {DefaultSt(), []SizeClass{{1, math.Inf(1)}}},
		"weights past float64": {DefaultSt(), []SizeClass{{1, math.MaxFloat64}, {2, math.MaxFloat64}}},
	} {
		c := tc.c
		c.Sizes = tc.sizes
		if _, err := GenerateSt(c); err == nil || !strings.Contains(err.Error(), "Sizes") {
			t.Errorf("Synthetic-St, %s: error %v, want one naming Sizes", name, err)
		}
		if err := GenerateDbTo(DbOf(c), func(trace.Record) error { return nil }); err == nil || !strings.Contains(err.Error(), "Sizes") {
			t.Errorf("Synthetic-Db, %s: error %v, want one naming Sizes", name, err)
		}
	}
}

// badAlphas are the Zipf skews every generator config rejects.
var badAlphas = []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)}

func TestGenerateDb(t *testing.T) {
	cfg := DefaultDb()
	cfg.St.Duration = 10 * sim.Millisecond
	tr, err := GenerateDb(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTrace(t, tr)
	s := trace.Analyze(tr)
	// 10000 proc accesses/ms over 10 ms: ~100k.
	if s.ProcAccesses < 90000 || s.ProcAccesses > 110000 {
		t.Fatalf("proc accesses = %d, want ~100000", s.ProcAccesses)
	}
	if s.DiskTransfers != 0 {
		t.Fatal("database trace should have no disk DMAs")
	}
	if s.DMATransfers == 0 {
		t.Fatal("no DMA transfers")
	}
}

func TestGenerateDbProcPerTransfer(t *testing.T) {
	cfg := DefaultDb()
	cfg.St.Duration = 5 * sim.Millisecond
	cfg.ProcPerTransfer = 50
	tr, err := GenerateDb(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Analyze(tr)
	if got := s.ProcAccessesPerTransfer(); math.Abs(got-50) > 0.5 {
		t.Fatalf("proc per transfer = %g, want 50", got)
	}
}

func TestGenerateDbNoProc(t *testing.T) {
	cfg := DefaultDb()
	cfg.St.Duration = 2 * sim.Millisecond
	cfg.ProcRatePerMs = 0
	tr, err := GenerateDb(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Analyze(tr).ProcAccesses != 0 {
		t.Fatal("expected no proc accesses")
	}
}

func TestSizeSampler(t *testing.T) {
	s := newSizeSampler([]SizeClass{{1, 1}, {4, 1}})
	r := NewRNG(9)
	counts := map[int]int{}
	for i := 0; i < 10000; i++ {
		counts[s.sample(r)]++
	}
	if counts[1] == 0 || counts[4] == 0 {
		t.Fatalf("sampler ignored a class: %v", counts)
	}
	ratio := float64(counts[1]) / float64(counts[4])
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("equal weights gave ratio %g", ratio)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad size class accepted")
		}
	}()
	newSizeSampler([]SizeClass{{0, 1}})
}

func TestDefaultSizesMean(t *testing.T) {
	// The default matches the paper's 8 KB transfers exactly; the
	// mixed distribution for the sensitivity study averages a few
	// pages.
	mean := func(classes []SizeClass) float64 {
		m, total := 0.0, 0.0
		for _, c := range classes {
			m += float64(c.Pages) * c.Weight
			total += c.Weight
		}
		return m / total
	}
	if got := mean(DefaultSizes()); got != 1 {
		t.Fatalf("default mean transfer size = %g pages, want 1", got)
	}
	if got := mean(MixedSizes()); got < 1.3 || got > 6 {
		t.Fatalf("mixed mean transfer size = %g pages", got)
	}
}

// TestDbOf pins the one Synthetic-Db seed rule both the public API and
// dmamem-trace record use: seed 1, the Synthetic-St default, moves to
// 2 (DefaultDb's seed); every other seed, and the DMA stream's other
// parameters, pass through; the disk share is always zero.
func TestDbOf(t *testing.T) {
	for in, want := range map[uint64]uint64{0: 0, 1: 2, 2: 2, 3: 3, 7919: 7919} {
		st := DefaultSt()
		st.Seed, st.Duration = in, 3*sim.Millisecond
		c := DbOf(st)
		if c.St.Seed != want || c.St.DiskFraction != 0 || c.St.Duration != st.Duration || c.ProcRatePerMs != 10000 {
			t.Errorf("DbOf(seed %d) = %+v, want seed %d, no disk DMAs, the St duration, 10000 proc/ms", in, c, want)
		}
	}
	if got := DefaultDb(); got.St.Seed != 2 || got.St.DiskFraction != 0 {
		t.Errorf("DefaultDb() = %+v, want seed 2 and no disk DMAs", got)
	}
}

// BenchmarkZipfSample draws ranks from the tables NewZipf keeps for the
// Synthetic traces (131,072 pages) and OLTP-St (500,000 objects), both
// alpha = 1, and for OLTP-Db (40,000 objects, alpha = 0.75), guided as
// kept and with the search run over the whole table; at alpha = 1 also
// from the full cumulative table of the same size, which the compact
// form must sample no slower than.
func BenchmarkZipfSample(b *testing.B) {
	for _, tc := range []struct {
		n     int
		alpha float64
	}{{131072, 1}, {500000, 1}, {40000, 0.75}} {
		kept := NewZipf(tc.n, tc.alpha)
		for _, v := range []struct {
			name string
			rank func(float64) int
		}{
			{"kept", kept.rank},
			{"unguided", func(u float64) int { return unguidedRank(kept, u) }},
			{"full", (&Zipf{n: tc.n, cum: refCum(tc.n, tc.alpha)}).guided().rank},
		} {
			if v.name == "full" && tc.alpha != 1 {
				continue // the kept table is the full one
			}
			b.Run(fmt.Sprintf("n=%d/alpha=%g/%s", tc.n, tc.alpha, v.name), func(b *testing.B) {
				r := NewRNG(1)
				sum := 0
				for i := 0; i < b.N; i++ {
					sum += v.rank(r.Float64())
				}
				sinkRank = sum
			})
		}
	}
}

var sinkRank int

// checkTrace drains a checking cursor over tr, the validation a run
// applies to a trace, and fails on its error.
func checkTrace(t *testing.T, tr *trace.Trace) {
	t.Helper()
	c := tr.Cursor()
	c.Check(math.MaxInt32)
	for _, ok := c.Next(); ok; _, ok = c.Next() {
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// prob returns the probability mass the table gives a rank, the
// reference its samples are checked against.
func prob(z *Zipf, rank int) float64 {
	if rank == 0 {
		return z.cumAt(0)
	}
	return z.cumAt(rank) - z.cumAt(rank-1)
}

// cumAt returns the cumulative value of a rank, bit-identical to the
// full table's.
func (z *Zipf) cumAt(rank int) float64 {
	if z.cum != nil {
		return z.cum[rank]
	}
	if rank == z.n-1 {
		return 1
	}
	total := z.sums[rank/zipfBlock]
	for i := rank - rank%zipfBlock; i <= rank; i++ {
		total += 1 / float64(i+1)
	}
	return total * z.inv
}
