package server

import (
	"fmt"
	"math"

	"dmamem/internal/memsys"
	"dmamem/internal/san"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// DatabaseConfig parameterizes the database-server model synthesizing
// our OLTP-Db trace: queries over a memory-resident bufferpool produce
// processor cache-line accesses plus network DMAs of the results
// (Table 2: "memory accesses from processors and network DMAs").
type DatabaseConfig struct {
	Seed     uint64
	Duration sim.Duration
	// QueryRatePerMs is the Poisson query arrival rate. Each query
	// emits one result transfer, so the paper's 100 transfers/ms is
	// QueryRatePerMs = 100.
	QueryRatePerMs float64
	// ProcAccessesPerQuery is the mean number of 64-byte processor
	// accesses a query performs (the OLTP-Db trace averages 233 per
	// transfer).
	ProcAccessesPerQuery float64
	// ProcAccessGap is the mean time between successive processor
	// accesses of one query (instruction work between memory touches).
	ProcAccessGap sim.Duration
	// Objects, Alpha and Sizes shape the bufferpool popularity; the
	// whole dataset is memory resident.
	Objects int
	Alpha   float64
	Sizes   []synth.SizeClass
	// Frames is the bufferpool size; it must hold the dataset.
	Frames    int
	PageBytes int
	Buses     int
	// BusBandwidth for nominal result-DMA durations.
	BusBandwidth float64
	SAN          san.Config
}

// DefaultDatabase returns the OLTP-Db calibration: 100 transfers/ms
// and 233 processor accesses per transfer.
func DefaultDatabase() DatabaseConfig {
	g := memsys.Default()
	return DatabaseConfig{
		Seed:                 11,
		Duration:             100 * sim.Millisecond,
		QueryRatePerMs:       100,
		ProcAccessesPerQuery: 233,
		ProcAccessGap:        300 * sim.Nanosecond,
		Objects:              40000,
		Alpha:                0.75,
		Frames:               g.TotalPages(),
		PageBytes:            g.PageBytes,
		Buses:                3,
		BusBandwidth:         1.064e9,
		SAN:                  san.DefaultConfig(),
	}
}

func (c DatabaseConfig) validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("server: nonpositive duration %v", c.Duration)
	case c.QueryRatePerMs <= 0:
		return fmt.Errorf("server: nonpositive query rate %g", c.QueryRatePerMs)
	case c.ProcAccessesPerQuery < 0:
		return fmt.Errorf("server: negative proc accesses %g", c.ProcAccessesPerQuery)
	case c.ProcAccessGap <= 0:
		return fmt.Errorf("server: nonpositive proc gap %v", c.ProcAccessGap)
	case c.Objects <= 0 || c.Objects > math.MaxInt32:
		return fmt.Errorf("server: %d objects (ObjectID is int32)", c.Objects)
	case !synth.ValidSkew(c.Alpha):
		return fmt.Errorf("server: Zipf skew Alpha %g is not finite and non-negative", c.Alpha)
	case c.Frames <= 0:
		return fmt.Errorf("server: %d frames", c.Frames)
	case c.PageBytes <= 0:
		return fmt.Errorf("server: page size %d", c.PageBytes)
	case c.Buses <= 0 || c.Buses > 255:
		return fmt.Errorf("server: %d buses", c.Buses)
	case c.BusBandwidth <= 0:
		return fmt.Errorf("server: bus bandwidth %g", c.BusBandwidth)
	}
	return nil
}

// DatabaseResult is the generated trace plus workload statistics.
type DatabaseResult struct {
	Trace    *trace.Trace
	Queries  int64
	MeanResp sim.Duration
}

// GenerateDatabase runs the database-server model. The bufferpool is
// pre-populated (a warm OLTP server); queries touch their object's
// pages with processor accesses and then DMA the result out.
func GenerateDatabase(c DatabaseConfig) (*DatabaseResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.Sizes == nil {
		c.Sizes = synth.DefaultSizes()
	}
	var totalWeight float64
	for _, s := range c.Sizes {
		totalWeight += s.Weight
	}

	rng := synth.NewRNG(c.Seed)
	zipf := synth.NewZipf(c.Objects, c.Alpha)
	perm := rng.Perm(c.Objects)

	pool, err := NewBufferCache(c.Frames, c.Objects)
	if err != nil {
		return nil, err
	}
	// Warm the pool with the whole dataset; fail loudly if it cannot
	// fit (the OLTP-Db configuration is memory resident by design).
	totalPages := 0
	for id := 0; id < c.Objects; id++ {
		totalPages += objectPages(ObjectID(id), c.Sizes, totalWeight)
	}
	if totalPages > c.Frames {
		return nil, fmt.Errorf("server: dataset (%d pages) exceeds bufferpool (%d frames)",
			totalPages, c.Frames)
	}
	for id := 0; id < c.Objects; id++ {
		pool.Insert(ObjectID(id), objectPages(ObjectID(id), c.Sizes, totalWeight))
	}

	fabric, err := san.NewFabric(c.SAN)
	if err != nil {
		return nil, err
	}

	// Reserve the expected record count plus three standard deviations,
	// so the trace is almost never regrown: a Poisson number of queries
	// q, each emitting about 1 + Exp(a) records (its processor accesses
	// and one result DMA). Past 1<<24 records append takes over.
	q, a := c.Duration.Seconds()*1e3*c.QueryRatePerMs, c.ProcAccessesPerQuery
	reserve := q*(1+a) + 3*math.Sqrt(q*((1+a)*(1+a)+a*a))
	res := &DatabaseResult{Trace: &trace.Trace{
		Name:    "OLTP-Db",
		Records: make([]trace.Record, 0, int(min(reserve, 1<<24))),
	}}
	tr := res.Trace
	meanGap := 1e-3 / c.QueryRatePerMs
	var now sim.Time
	var respSum sim.Duration
	for {
		now = now.Add(sim.FromSeconds(rng.Exp(meanGap)))
		if now > sim.Time(c.Duration) {
			break
		}
		res.Queries++
		arrive := fabric.RequestArrival(now)
		obj := ObjectID(perm[zipf.Sample(rng)])
		start, pages, ok := pool.Lookup(obj)
		if !ok {
			panic("server: warm bufferpool missed")
		}
		// Execute: processor accesses over the object's pages (and a
		// sprinkle of index pages elsewhere in the pool).
		t := arrive
		n := int(rng.Exp(c.ProcAccessesPerQuery))
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			t = t.Add(sim.Duration(rng.Exp(float64(c.ProcAccessGap))))
			page := start + memsys.PageID(rng.Intn(pages))
			if rng.Float64() < 0.2 { // index/catalog touch
				idxObj := ObjectID(perm[zipf.Sample(rng)])
				if s, p, ok := pool.Lookup(idxObj); ok {
					page = s + memsys.PageID(rng.Intn(p))
				}
			}
			kind := trace.ProcRead
			if rng.Float64() < 0.3 {
				kind = trace.ProcWrite
			}
			tr.Records = append(tr.Records, trace.Record{
				Time: t, Kind: kind, Source: trace.SrcProcessor, Page: page,
			})
		}
		// Result DMA out of memory.
		tr.Records = append(tr.Records, trace.Record{
			Time: t, Kind: trace.DMARead, Source: trace.SrcNetwork,
			Bus: uint8(rng.Intn(c.Buses)), Pages: uint16(pages), Page: start,
		})
		bytes := int64(pages) * int64(c.PageBytes)
		dmaDur := sim.FromSeconds(float64(bytes) / c.BusBandwidth)
		done := fabric.Reply(t.Add(dmaDur), bytes)
		respSum += done.Sub(now)
	}
	tr.SortByTime()
	if res.Queries > 0 {
		res.MeanResp = sim.Duration(int64(respSum) / res.Queries)
		tr.Meta.MeanClientResponse = res.MeanResp
		tr.Meta.TransfersPerClientRequest = 1
	}
	return res, nil
}
