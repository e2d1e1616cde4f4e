package trace

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

func sampleTrace() *Trace {
	return &Trace{
		Name: "sample",
		Records: []Record{
			{Time: 0, Kind: DMAWrite, Source: SrcDisk, Bus: 1, Pages: 2, Page: 10},
			{Time: 1000, Kind: ProcRead, Source: SrcProcessor, Page: 10},
			{Time: 2000, Kind: DMARead, Source: SrcNetwork, Bus: 0, Pages: 1, Page: 11},
			{Time: 2000, Kind: ProcWrite, Source: SrcProcessor, Page: 12},
			{Time: 5000, Kind: DMARead, Source: SrcNetwork, Bus: 2, Pages: 4, Page: 10},
		},
	}
}

func TestKindAndSourceStrings(t *testing.T) {
	if DMARead.String() != "dma-read" || ProcWrite.String() != "proc-write" {
		t.Error("kind names wrong")
	}
	if SrcNetwork.String() != "net" || SrcDisk.String() != "disk" {
		t.Error("source names wrong")
	}
	if !DMARead.IsDMA() || !DMAWrite.IsDMA() || ProcRead.IsDMA() {
		t.Error("IsDMA wrong")
	}
	if Kind(9).String() == "" || Source(9).String() == "" {
		t.Error("unknown enums should still render")
	}
}

func TestRecordBytes(t *testing.T) {
	r := Record{Kind: DMAWrite, Pages: 3}
	if r.Bytes(8192) != 3*8192 {
		t.Errorf("DMA bytes = %d", r.Bytes(8192))
	}
	p := Record{Kind: ProcRead}
	if p.Bytes(8192) != 64 {
		t.Errorf("proc bytes = %d", p.Bytes(8192))
	}
}

// checked drains a checking cursor over tr, the validation a run
// applies, and returns its error.
func checked(tr *Trace) error {
	c := tr.Cursor()
	c.Check(math.MaxInt32)
	for _, ok := c.Next(); ok; _, ok = c.Next() {
	}
	return c.Err()
}

func TestValidate(t *testing.T) {
	tr := sampleTrace()
	if err := checked(tr); err != nil {
		t.Fatal(err)
	}
	bad := &Trace{Records: []Record{{Time: 10}, {Time: 5}}}
	if checked(bad) == nil {
		t.Error("out-of-order trace accepted")
	}
	zero := &Trace{Records: []Record{{Time: 0, Kind: DMARead, Pages: 0}}}
	if checked(zero) == nil {
		t.Error("zero-page DMA accepted")
	}
	badKind := &Trace{Records: []Record{{Time: 0, Kind: Kind(200), Pages: 1}}}
	if checked(badKind) == nil {
		t.Error("invalid kind accepted")
	}
}

func TestDurationAndClip(t *testing.T) {
	tr := sampleTrace()
	if tr.Duration() != 5000 {
		t.Errorf("Duration = %v", tr.Duration())
	}
	clipped := tr.Clip(2000)
	if len(clipped.Records) != 2 {
		t.Errorf("Clip kept %d records, want 2", len(clipped.Records))
	}
	if (&Trace{}).Duration() != 0 {
		t.Error("empty trace duration")
	}
}

// TestSortByTimeMatchesStableSort holds SortByTime to the library's
// stable sort on the same comparator, over lengths around the block and
// merge boundaries and inputs from random to nearly sorted, with many
// equal times so stability is what decides the order.
func TestSortByTimeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 64, 65, 100, 1000, 4097} {
		for _, spread := range []int{1, 4, n + 1} {
			for _, presorted := range []bool{false, true} {
				rs := make([]Record, n)
				for i := range rs {
					// Page carries the input position, so any instability shows.
					rs[i] = Record{Time: sim.Time(rng.Intn(spread)), Page: memsys.PageID(i)}
				}
				if presorted {
					slices.SortStableFunc(rs[:n/2], byTime)
					slices.SortStableFunc(rs[n/2:], byTime)
				}
				want := slices.Clone(rs)
				slices.SortStableFunc(want, byTime)
				tr := &Trace{Records: rs}
				tr.SortByTime()
				if !slices.Equal(tr.Records, want) {
					t.Fatalf("n=%d spread=%d presorted=%v: order differs from a stable sort", n, spread, presorted)
				}
			}
		}
	}
}

func byTime(a, b Record) int { return cmp.Compare(a.Time, b.Time) }

func TestStats(t *testing.T) {
	tr := sampleTrace()
	s := Analyze(tr)
	if s.DMATransfers != 3 || s.NetTransfers != 2 || s.DiskTransfers != 1 {
		t.Errorf("transfer counts: %+v", s)
	}
	if s.ProcAccesses != 2 {
		t.Errorf("proc accesses = %d", s.ProcAccesses)
	}
	if s.DMAPages != 7 {
		t.Errorf("dma pages = %d", s.DMAPages)
	}
	// Pages touched: 10,11 (disk write), 11 (net), 10,11,12,13 (net 4p).
	if s.DistinctPages != 4 {
		t.Errorf("distinct pages = %d", s.DistinctPages)
	}
	if s.pagePopularity[10] != 2 || s.pagePopularity[11] != 3 {
		t.Errorf("popularity: p10=%d p11=%d", s.pagePopularity[10], s.pagePopularity[11])
	}
	if got := s.meanTransferPages(); got != 7.0/3.0 {
		t.Errorf("mean transfer pages = %g", got)
	}
	if s.ProcAccessesPerTransfer() != 2.0/3.0 {
		t.Errorf("proc per transfer = %g", s.ProcAccessesPerTransfer())
	}
	if s.String() == "" {
		t.Error("empty summary")
	}
}

func TestStatsRates(t *testing.T) {
	tr := &Trace{Records: []Record{
		{Time: 0, Kind: DMARead, Source: SrcNetwork, Pages: 1},
		{Time: sim.Time(1 * sim.Millisecond), Kind: DMARead, Source: SrcNetwork, Pages: 1},
	}}
	s := Analyze(tr)
	if got := transfersPerMs(s.DMATransfers, s.Duration); got != 2.0 {
		t.Errorf("transfersPerMs = %g, want 2", got)
	}
}

func TestPopularityCDF(t *testing.T) {
	// 4 pages with counts 70, 20, 9, 1.
	tr := &Trace{}
	counts := map[memsys.PageID]int{0: 70, 1: 20, 2: 9, 3: 1}
	now := sim.Time(0)
	for p, c := range counts {
		for i := 0; i < c; i++ {
			tr.Records = append(tr.Records, Record{Time: now, Kind: DMARead, Pages: 1, Page: p})
			now++
		}
	}
	s := Analyze(tr)
	pts := s.PopularityCDF(4)
	if len(pts) != 4 {
		t.Fatalf("got %d points: %+v", len(pts), pts)
	}
	// Top 25% of pages (1 page) should have 70% of accesses.
	if pts[0].PageFrac != 0.25 || pts[0].AccessFrac != 0.70 {
		t.Errorf("first point = %+v", pts[0])
	}
	last := pts[len(pts)-1]
	if last.PageFrac != 1.0 || last.AccessFrac != 1.0 {
		t.Errorf("last point = %+v", last)
	}
	if pts[1].PageFrac != 0.5 || pts[1].AccessFrac != 0.90 {
		t.Errorf("second point = %+v", pts[1])
	}
}

// Property: the popularity CDF is monotone, ends at (1,1), and is
// concave-ish (access fraction >= page fraction everywhere since pages
// are sorted by decreasing popularity).
func TestQuickCDFInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{}
		now := sim.Time(0)
		nPages := 1 + rng.Intn(50)
		for i := 0; i < 500; i++ {
			now++
			tr.Records = append(tr.Records, Record{
				Time: now, Kind: DMARead, Pages: 1,
				Page: memsys.PageID(rng.Intn(nPages)),
			})
		}
		s := Analyze(tr)
		pts := s.PopularityCDF(10)
		if len(pts) == 0 {
			return false
		}
		prev := CDFPoint{}
		for _, p := range pts {
			if p.PageFrac < prev.PageFrac || p.AccessFrac < prev.AccessFrac {
				return false
			}
			if p.AccessFrac < p.PageFrac-1e-9 {
				return false
			}
			prev = p
		}
		last := pts[len(pts)-1]
		return last.PageFrac == 1 && last.AccessFrac == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInterArrivalCV(t *testing.T) {
	// Perfectly periodic arrivals: CV ~ 0.
	periodic := &Trace{}
	for i := 0; i < 100; i++ {
		periodic.Records = append(periodic.Records, Record{
			Time: sim.Time(i) * sim.Time(sim.Microsecond), Kind: DMARead, Pages: 1,
		})
	}
	if cv := Analyze(periodic).InterArrivalCV(); cv > 0.01 {
		t.Fatalf("periodic CV = %g", cv)
	}
	// Bursty arrivals (pairs): CV near 1.
	bursty := &Trace{}
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		gap := sim.Duration(10 * sim.Nanosecond)
		if i%2 == 0 {
			gap = 2 * sim.Microsecond
		}
		now = now.Add(gap)
		bursty.Records = append(bursty.Records, Record{Time: now, Kind: DMARead, Pages: 1})
	}
	if cv := Analyze(bursty).InterArrivalCV(); cv < 0.5 {
		t.Fatalf("bursty CV = %g", cv)
	}
	if (&Stats{}).InterArrivalCV() != 0 {
		t.Fatal("empty stats CV")
	}
}

func TestChipLoadCV(t *testing.T) {
	// All traffic on pages mapping to one chip: very skewed.
	skewed := &Trace{}
	for i := 0; i < 64; i++ {
		skewed.Records = append(skewed.Records, Record{
			Time: sim.Time(i), Kind: DMARead, Pages: 1, Page: memsys.PageID(i * 32),
		})
	}
	s := Analyze(skewed)
	if cv := s.ChipLoadCV(32); cv < 3 {
		t.Fatalf("one-chip load CV = %g, want >> 1", cv)
	}
	// Uniform spread: CV ~ 0.
	uniform := &Trace{}
	for i := 0; i < 320; i++ {
		uniform.Records = append(uniform.Records, Record{
			Time: sim.Time(i), Kind: DMARead, Pages: 1, Page: memsys.PageID(i),
		})
	}
	if cv := Analyze(uniform).ChipLoadCV(32); cv > 0.01 {
		t.Fatalf("uniform load CV = %g", cv)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero chips accepted")
		}
	}()
	s.ChipLoadCV(0)
}
