package server

import (
	"encoding/binary"
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
		return fmt.Errorf("server: %d objects (object IDs are int32)", c.Objects)
	case !synth.ValidSkew(c.Alpha):
		return fmt.Errorf("server: Zipf skew Alpha %g is not finite and non-negative", c.Alpha)
	case c.Frames <= 0 || c.Frames > math.MaxInt32:
		return fmt.Errorf("server: %d frames", c.Frames)
	case c.PageBytes <= 0:
		return fmt.Errorf("server: page size %d", c.PageBytes)
	case c.Buses <= 0 || c.Buses > 255:
		return fmt.Errorf("server: %d buses", c.Buses)
	case c.BusBandwidth <= 0:
		return fmt.Errorf("server: bus bandwidth %g", c.BusBandwidth)
	}
	if c.Sizes != nil {
		if err := synth.CheckSizes(c.Sizes, c.Frames); err != nil {
			return fmt.Errorf("server: %w", err)
		}
	}
	return nil
}

// DatabaseResult is the generated trace plus workload statistics.
type DatabaseResult struct {
	Trace    *trace.Trace
	Queries  int64
	MeanResp sim.Duration
}

// dbLayout is where the warm bufferpool holds each object: the objects
// laid end to end from frame 0 in ID order, where inserting them one by
// one into an empty bufferCache puts them. The pool never misses or
// evicts, so the layout is all a query reads of it. It depends only on
// (Objects, Sizes), so the process keeps one per pair (dbLayouts).
type dbLayout struct {
	// start[id] is object id's first frame and start[id+1] the frame
	// after its last; nil when the dataset passes the int32 range.
	start []memsys.PageID
	pages int64 // the dataset's size in pages
}

// dbLayouts holds the layouts of at most 8 (Objects, Sizes) pairs.
var dbLayouts = synth.SharedTables[layoutKey, *dbLayout]{Max: 8}

type layoutKey struct {
	objects int
	sizes   string // each class's Pages and Weight bits
}

// layoutOf returns the layout for a validated config's Objects and
// non-nil Sizes.
func layoutOf(objects int, sizes []synth.SizeClass) *dbLayout {
	key := make([]byte, 0, 16*len(sizes))
	for _, s := range sizes {
		key = binary.LittleEndian.AppendUint64(key, uint64(s.Pages))
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(s.Weight))
	}
	return dbLayouts.Get(layoutKey{objects, string(key)}, func() *dbLayout {
		var totalWeight float64
		for _, s := range sizes {
			totalWeight += s.Weight
		}
		l := &dbLayout{start: make([]memsys.PageID, objects+1)}
		for id := 0; id < objects; id++ {
			l.start[id] = memsys.PageID(l.pages)
			l.pages += int64(objectPages(objectID(id), sizes, totalWeight))
		}
		l.start[objects] = memsys.PageID(l.pages)
		if l.pages > math.MaxInt32 {
			l.start = nil // the starts wrapped; no pool holds this dataset
		}
		return l
	})
}

// queryMerger puts OLTP-Db's records in time order while the queries
// are generated: what a stable sort by time of all of them, in query
// order, would give. Each query's records are in time order and none
// is earlier than its arrival, and arrivals never fall; so when a query
// arrives at a, every pending record at or before a can go out, equal
// times going to the earlier query. Only the queries that overlap are
// ever pending, each in a slot whose buffer is reused.
type queryMerger struct {
	out    []trace.Record
	slots  [][]trace.Record
	free   []int32
	heap   []queryCursor
	seq    int
	runCap int // a new slot's buffer capacity
}

// newQueryMerger returns a merger whose output has room for records
// and whose slots start with room for runCap records each.
func newQueryMerger(records, runCap int) *queryMerger {
	return &queryMerger{
		out:    make([]trace.Record, 0, records),
		slots:  make([][]trace.Record, 0, 32),
		free:   make([]int32, 0, 32),
		heap:   make([]queryCursor, 0, 32),
		runCap: runCap,
	}
}

// queryCursor is a pending query's next record: its time, the query's
// sequence number, its slot and the record's index there.
type queryCursor struct {
	t         sim.Time
	seq       int
	slot, pos int32
}

func (c queryCursor) before(d queryCursor) bool {
	return c.t < d.t || c.t == d.t && c.seq < d.seq
}

// begin emits what a query arriving at a can no longer precede and
// returns an empty buffer for its records; end takes the filled buffer
// back.
func (m *queryMerger) begin(a sim.Time) []trace.Record {
	for len(m.heap) > 0 && m.heap[0].t <= a {
		m.emit()
	}
	if n := len(m.free); n > 0 {
		return m.slots[m.free[n-1]][:0]
	}
	return make([]trace.Record, 0, m.runCap)
}

func (m *queryMerger) end(recs []trace.Record) {
	if len(recs) == 0 {
		return
	}
	var slot int32
	if n := len(m.free); n > 0 {
		slot, m.free = m.free[n-1], m.free[:n-1]
		m.slots[slot] = recs
	} else {
		slot = int32(len(m.slots))
		m.slots = append(m.slots, recs)
	}
	c := queryCursor{t: recs[0].Time, seq: m.seq, slot: slot}
	m.seq++
	m.heap = append(m.heap, c)
	i := len(m.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !c.before(m.heap[parent]) {
			break
		}
		m.heap[i] = m.heap[parent]
		i = parent
	}
	m.heap[i] = c
}

// finish emits every pending record and returns the merged records.
func (m *queryMerger) finish() []trace.Record {
	for len(m.heap) > 0 {
		m.emit()
	}
	return m.out
}

// emit moves the earliest pending record out.
func (m *queryMerger) emit() {
	h := m.heap
	c := h[0]
	recs := m.slots[c.slot]
	m.out = append(m.out, recs[c.pos])
	if c.pos++; int(c.pos) < len(recs) {
		c.t = recs[c.pos].Time
	} else {
		m.free = append(m.free, c.slot)
		c = h[len(h)-1]
		h = h[:len(h)-1]
		m.heap = h
		if len(h) == 0 {
			return
		}
	}
	// Sift c down from the root, moving the earlier child up.
	i := 0
	for {
		least := 2*i + 1
		if least >= len(h) {
			break
		}
		if r := least + 1; r < len(h) && h[r].before(h[least]) {
			least = r
		}
		if !h[least].before(c) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = c
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
	// The whole dataset is resident (the OLTP-Db configuration is
	// memory resident by design); fail loudly if it cannot fit.
	layout := layoutOf(c.Objects, c.Sizes)
	if layout.pages > int64(c.Frames) {
		return nil, fmt.Errorf("server: dataset (%d pages) exceeds bufferpool (%d frames)",
			layout.pages, c.Frames)
	}
	start := layout.start

	rng := synth.NewRNG(c.Seed)
	zipf := synth.NewZipf(c.Objects, c.Alpha)
	perm := rng.Perm(c.Objects)

	fabric, err := san.NewFabric(c.SAN)
	if err != nil {
		return nil, err
	}

	// Reserve the expected record count plus three standard deviations,
	// so the buffers are almost never regrown: a Poisson number of
	// queries q, each emitting about 1 + Exp(a) records (its processor
	// accesses and one result DMA). Past 1<<24 records append takes
	// over.
	q, a := c.Duration.Seconds()*1e3*c.QueryRatePerMs, c.ProcAccessesPerQuery
	reserve := q*(1+a) + 3*math.Sqrt(q*((1+a)*(1+a)+a*a))
	// A query's buffer starts with room for four times its mean record
	// count, which about 2% of queries exceed.
	merge := newQueryMerger(int(min(reserve, 1<<24)), int(4*(1+a)))
	res := &DatabaseResult{Trace: &trace.Trace{Name: "OLTP-Db"}}
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
		obj := perm[zipf.Sample(rng)]
		first, pages := start[obj], int(start[obj+1]-start[obj])
		recs := merge.begin(arrive)
		// Execute: processor accesses over the object's pages (and a
		// sprinkle of index pages elsewhere in the pool).
		t := arrive
		n := int(rng.Exp(c.ProcAccessesPerQuery))
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			t = t.Add(sim.Duration(rng.Exp(float64(c.ProcAccessGap))))
			page := first + memsys.PageID(rng.Intn(pages))
			if rng.Float64() < 0.2 { // index/catalog touch
				idx := perm[zipf.Sample(rng)]
				page = start[idx] + memsys.PageID(rng.Intn(int(start[idx+1]-start[idx])))
			}
			kind := trace.ProcRead
			if rng.Float64() < 0.3 {
				kind = trace.ProcWrite
			}
			recs = append(recs, trace.Record{
				Time: t, Kind: kind, Source: trace.SrcProcessor, Page: page,
			})
		}
		// Result DMA out of memory.
		recs = append(recs, trace.Record{
			Time: t, Kind: trace.DMARead, Source: trace.SrcNetwork,
			Bus: uint8(rng.Intn(c.Buses)), Pages: uint16(pages), Page: first,
		})
		merge.end(recs)
		bytes := int64(pages) * int64(c.PageBytes)
		dmaDur := sim.FromSeconds(float64(bytes) / c.BusBandwidth)
		done := fabric.Reply(t.Add(dmaDur), bytes)
		respSum += done.Sub(now)
	}
	tr.Records = merge.finish()
	if res.Queries > 0 {
		res.MeanResp = sim.Duration(int64(respSum) / res.Queries)
		tr.Meta.MeanClientResponse = res.MeanResp
		tr.Meta.TransfersPerClientRequest = 1
	}
	return res, nil
}
