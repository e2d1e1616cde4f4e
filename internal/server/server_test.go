package server

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

func TestCacheBasics(t *testing.T) {
	c, err := newBufferCache(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.lookup(1); ok {
		t.Fatal("empty cache hit")
	}
	start := c.insert(1, 4)
	if start != 0 {
		t.Fatalf("first insert at frame %d", start)
	}
	s, p, ok := c.lookup(1)
	if !ok || s != 0 || p != 4 {
		t.Fatalf("lookup: %v %v %v", s, p, ok)
	}
	if c.resident != 1 {
		t.Fatalf("len = %d", c.resident)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := newBufferCache(8, 4)
	c.insert(1, 4)
	c.insert(2, 4)
	// Touch 1 so 2 becomes LRU.
	c.lookup(1)
	c.insert(3, 4) // must evict 2
	if _, _, ok := c.lookup(2); ok {
		t.Fatal("LRU object survived")
	}
	if _, _, ok := c.lookup(1); !ok {
		t.Fatal("MRU object evicted")
	}
	if c.resident != 2 {
		t.Fatalf("len = %d after one eviction", c.resident)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheMultiEviction(t *testing.T) {
	// Inserting a large object must evict as many small ones as needed
	// and place it in a contiguous run.
	c, _ := newBufferCache(8, 101)
	for id := objectID(0); id < 8; id++ {
		c.insert(id, 1)
	}
	start := c.insert(100, 6)
	if start < 0 || int(start)+6 > 8 {
		t.Fatalf("run out of range: %d", start)
	}
	if c.resident > 3 {
		t.Fatalf("len = %d after big insert", c.resident)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCachePanics(t *testing.T) {
	c, _ := newBufferCache(4, 4)
	c.insert(1, 2)
	for _, f := range []func(){
		func() { c.insert(1, 1) }, // already resident
		func() { c.insert(2, 5) }, // larger than cache
		func() { c.insert(3, 0) }, // zero pages
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
	for _, f := range []func(){
		func() { c.lookup(-1) },
		func() { c.lookup(4) },
		func() { c.insert(-1, 1) },
		func() { c.insert(4, 1) },
		func() { c.lookup(math.MaxInt32) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside [0, 4)") {
					t.Errorf("panic %v, want an object ID range error", r)
				}
			}()
			f()
		}()
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, size := range [][2]int{{0, 1}, {4, 0}, {4, -1}, {4, math.MaxInt32 + 1}} {
		if _, err := newBufferCache(size[0], size[1]); err == nil {
			t.Errorf("newBufferCache(%d, %d) accepted", size[0], size[1])
		}
	}
}

// TestBufferCacheZeroAlloc holds the cache to the memory it has
// allocated: once an ID's index page exists, hits, misses, inserts and
// the evictions they force allocate nothing. The 1000 IDs share one
// page, which the warm-up call allocates.
func TestBufferCacheZeroAlloc(t *testing.T) {
	c, err := newBufferCache(64, 1000)
	if err != nil {
		t.Fatal(err)
	}
	id := objectID(0)
	inserts := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := c.lookup(id); !ok {
			c.insert(id, 1+int(id%5))
			inserts++
		}
		c.lookup(id / 2)
		id = (id + 7) % 1000
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per lookup/insert", allocs)
	}
	if inserts <= c.resident {
		t.Fatal("no eviction exercised")
	}
}

// Property: after any sequence of inserts and lookups the cache
// invariants hold and no two objects overlap.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		c, err := newBufferCache(64, 40)
		if err != nil {
			return false
		}
		for _, op := range ops {
			id := objectID(op % 40)
			if _, _, ok := c.lookup(id); !ok && (op>>8)%2 == 0 {
				c.insert(id, 1+int(op%7))
			}
			if c.checkInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func shortStorage() StorageConfig {
	c := DefaultStorage()
	c.Duration = 20 * sim.Millisecond
	return c
}

func TestGenerateStorageShape(t *testing.T) {
	res, err := GenerateStorage(shortStorage())
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	checkTrace(t, tr)
	s := trace.Analyze(tr)
	// Network transfers track the request rate: reads emit one net DMA,
	// writes one net DMA; expect ~45/ms.
	net := float64(s.NetTransfers) / (tr.Duration().Seconds() * 1e3)
	if net < 35 || net > 55 {
		t.Fatalf("net transfers = %.1f/ms, want ~45", net)
	}
	// Disk transfers come from read misses and write-throughs; the
	// calibration targets the OLTP-St ballpark (16.7/ms +- 50%).
	diskRate := float64(s.DiskTransfers) / (tr.Duration().Seconds() * 1e3)
	if diskRate < 8 || diskRate > 30 {
		t.Fatalf("disk transfers = %.1f/ms, want ~17", diskRate)
	}
	if s.ProcAccesses != 0 {
		t.Fatal("storage trace should carry no processor accesses")
	}
	// Every record stays within the cache frame range.
	for _, r := range tr.Records {
		if int(r.Page)+int(r.Pages) > DefaultStorage().CacheFrames {
			t.Fatalf("record outside memory: %+v", r)
		}
	}
	if res.MeanResp <= 0 || tr.Meta.MeanClientResponse != res.MeanResp {
		t.Fatalf("mean response not recorded: %v", res.MeanResp)
	}
	if tr.Meta.TransfersPerClientRequest < 1 || tr.Meta.TransfersPerClientRequest > 2 {
		t.Fatalf("transfers per request = %g", tr.Meta.TransfersPerClientRequest)
	}
	if res.HitRatio <= 0 || res.HitRatio >= 1 {
		t.Fatalf("hit ratio = %g", res.HitRatio)
	}
}

func TestGenerateStoragePopularitySkew(t *testing.T) {
	// The Figure 4 shape: top 20% of pages carry far more than 20% of
	// accesses (paper: ~60%).
	res, err := GenerateStorage(shortStorage())
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Analyze(res.Trace)
	share := s.PopularityCDF(5)[0].AccessFrac
	if share < 0.4 || share > 0.95 {
		t.Fatalf("top-20%% share = %g, want strong skew", share)
	}
}

func TestGenerateStorageDeterminism(t *testing.T) {
	cfg := shortStorage()
	cfg.Duration = 5 * sim.Millisecond
	a, err := GenerateStorage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateStorage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace.Records) != len(b.Trace.Records) {
		t.Fatal("nondeterministic")
	}
	for i := range a.Trace.Records {
		if a.Trace.Records[i] != b.Trace.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGenerateStorageMissPathOrdering(t *testing.T) {
	// With a tiny cache every read misses: each net DMA of an object
	// must be preceded by a disk DMA for the same frames.
	cfg := shortStorage()
	cfg.Duration = 20 * sim.Millisecond
	cfg.CacheFrames = 64
	cfg.Objects = 10000
	cfg.ReadFraction = 1.0
	res, err := GenerateStorage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRatio > 0.4 {
		t.Fatalf("tiny cache should miss nearly always: hit ratio %g", res.HitRatio)
	}
	s := trace.Analyze(res.Trace)
	// Most network DMAs ride on the miss path, so disk DMAs should be
	// comparable in number (some trail past the horizon and are
	// clipped).
	if s.DiskTransfers < s.NetTransfers/2 {
		t.Fatalf("miss path under-represented: disk=%d net=%d",
			s.DiskTransfers, s.NetTransfers)
	}
	if res.MeanDisk < 500*sim.Microsecond {
		t.Fatalf("mean disk latency %v implausibly small", res.MeanDisk)
	}
}

func TestGenerateStorageValidation(t *testing.T) {
	bad := DefaultStorage()
	bad.RequestRatePerMs = 0
	if _, err := GenerateStorage(bad); err == nil {
		t.Error("zero rate accepted")
	}
	bad = DefaultStorage()
	bad.ReadFraction = 2
	if _, err := GenerateStorage(bad); err == nil {
		t.Error("bad read fraction accepted")
	}
	bad = DefaultStorage()
	bad.DiskCount = 0
	if _, err := GenerateStorage(bad); err == nil {
		t.Error("zero disks accepted")
	}
	bad = DefaultStorage()
	bad.Objects = math.MaxInt32 + 1
	if _, err := GenerateStorage(bad); err == nil {
		t.Error("object count beyond the objectID range accepted")
	}
	for _, alpha := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = DefaultStorage()
		bad.Alpha = alpha
		if _, err := GenerateStorage(bad); err == nil || !strings.Contains(err.Error(), "Alpha") {
			t.Errorf("Alpha %g: error %v, want one naming Alpha", alpha, err)
		}
	}
}

func TestObjectPagesStable(t *testing.T) {
	sizes := synth.DefaultSizes()
	var w float64
	for _, s := range sizes {
		w += s.Weight
	}
	for id := objectID(0); id < 100; id++ {
		a := objectPages(id, sizes, w)
		b := objectPages(id, sizes, w)
		if a != b {
			t.Fatalf("object %d size not stable", id)
		}
		if a < 1 || a > 8 {
			t.Fatalf("object %d size %d outside mixture", id, a)
		}
	}
}

func shortDatabase() DatabaseConfig {
	c := DefaultDatabase()
	c.Duration = 10 * sim.Millisecond
	return c
}

func TestGenerateDatabaseShape(t *testing.T) {
	res, err := GenerateDatabase(shortDatabase())
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	checkTrace(t, tr)
	s := trace.Analyze(tr)
	if s.DiskTransfers != 0 {
		t.Fatal("database trace should carry no disk DMAs")
	}
	rate := float64(s.DMATransfers) / (s.Duration.Seconds() * 1e3)
	if rate < 80 || rate > 120 {
		t.Fatalf("transfer rate = %.1f/ms, want ~100", rate)
	}
	// ~233 processor accesses per transfer.
	ppt := s.ProcAccessesPerTransfer()
	if ppt < 150 || ppt > 320 {
		t.Fatalf("proc per transfer = %.0f, want ~233", ppt)
	}
	if res.MeanResp <= 0 {
		t.Fatal("no response time recorded")
	}
}

func TestGenerateDatabaseDatasetMustFit(t *testing.T) {
	cfg := shortDatabase()
	cfg.Frames = 100 // far too small
	if _, err := GenerateDatabase(cfg); err == nil {
		t.Fatal("oversized dataset accepted")
	}
}

func TestGenerateDatabaseValidation(t *testing.T) {
	bad := DefaultDatabase()
	bad.QueryRatePerMs = 0
	if _, err := GenerateDatabase(bad); err == nil {
		t.Error("zero rate accepted")
	}
	bad = DefaultDatabase()
	bad.ProcAccessGap = 0
	if _, err := GenerateDatabase(bad); err == nil {
		t.Error("zero gap accepted")
	}
	bad = DefaultDatabase()
	bad.Objects = math.MaxInt32 + 1
	if _, err := GenerateDatabase(bad); err == nil {
		t.Error("object count beyond the objectID range accepted")
	}
	for _, alpha := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = DefaultDatabase()
		bad.Alpha = alpha
		if _, err := GenerateDatabase(bad); err == nil || !strings.Contains(err.Error(), "Alpha") {
			t.Errorf("Alpha %g: error %v, want one naming Alpha", alpha, err)
		}
	}
}

func TestGenerateDatabasePagesInRange(t *testing.T) {
	res, err := GenerateDatabase(shortDatabase())
	if err != nil {
		t.Fatal(err)
	}
	max := memsys.PageID(DefaultDatabase().Frames)
	for _, r := range res.Trace.Records {
		if r.Page < 0 || r.Page >= max {
			t.Fatalf("page %d out of range", r.Page)
		}
	}
}

func TestStorageMeanRespPlausible(t *testing.T) {
	res, err := GenerateStorage(shortStorage())
	if err != nil {
		t.Fatal(err)
	}
	// Response times should be dominated by SAN + occasional disk:
	// between 50 us and 50 ms on average.
	if res.MeanResp < 50*sim.Microsecond || res.MeanResp > 50*sim.Millisecond {
		t.Fatalf("mean response = %v", res.MeanResp)
	}
	if math.IsNaN(float64(res.MeanResp)) {
		t.Fatal("NaN response")
	}
}

// badSizes are size mixtures both server configs reject with an error
// naming Sizes, by what is wrong with them.
var badSizes = map[string][]synth.SizeClass{
	"empty":                {},
	"zero pages":           {{Pages: 0, Weight: 1}},
	"negative pages":       {{Pages: 1, Weight: 1}, {Pages: -2, Weight: 1}},
	"pages past uint16":    {{Pages: 1 << 16, Weight: 1}},
	"NaN weight":           {{Pages: 1, Weight: 1}, {Pages: 2, Weight: math.NaN()}},
	"zero weight":          {{Pages: 1, Weight: 0}},
	"negative weight":      {{Pages: 1, Weight: -1}},
	"infinite weight":      {{Pages: 1, Weight: math.Inf(1)}},
	"weights past float64": {{Pages: 1, Weight: math.MaxFloat64}, {Pages: 2, Weight: math.MaxFloat64}},
}

func TestConfigsRejectBadSizes(t *testing.T) {
	for name, sizes := range badSizes {
		st := shortStorage()
		st.Sizes = sizes
		if _, err := GenerateStorage(st); err == nil || !strings.Contains(err.Error(), "Sizes") {
			t.Errorf("StorageConfig, %s: error %v, want one naming Sizes", name, err)
		}
		db := shortDatabase()
		db.Sizes = sizes
		if _, err := GenerateDatabase(db); err == nil || !strings.Contains(err.Error(), "Sizes") {
			t.Errorf("DatabaseConfig, %s: error %v, want one naming Sizes", name, err)
		}
	}
	st := shortStorage()
	st.CacheFrames, st.Sizes = 4, []synth.SizeClass{{Pages: 5, Weight: 1}}
	if _, err := GenerateStorage(st); err == nil || !strings.Contains(err.Error(), "Sizes") {
		t.Errorf("StorageConfig, a class larger than the cache: error %v, want one naming Sizes", err)
	}
}

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
