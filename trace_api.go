package dmamem

import (
	"fmt"
	"os"
	"time"

	"dmamem/internal/memsys"
	"dmamem/internal/server"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// Trace is a time-ordered memory-access trace: DMA transfers from
// network and disk plus processor cache-line accesses. Obtain one from
// the synthetic generators, the server workload models, ReadTraceFile,
// or build one record at a time with AppendDMA/AppendProcessorAccess.
type Trace struct {
	t *trace.Trace
}

// Name returns the trace's label.
func (tr *Trace) Name() string { return tr.t.Name }

// Len returns the number of records.
func (tr *Trace) Len() int { return len(tr.t.Records) }

// Duration returns the simulated span the trace covers.
func (tr *Trace) Duration() time.Duration {
	return time.Duration(tr.t.Duration().Seconds() * float64(time.Second))
}

// Summary returns a human-readable Table 2 style description.
func (tr *Trace) Summary() string { return trace.Analyze(tr.t).String() }

// Burstiness returns the coefficient of variation of DMA inter-arrival
// times: ~1 for Poisson arrivals, higher for bursty traffic.
func (tr *Trace) Burstiness() float64 {
	return trace.Analyze(tr.t).InterArrivalCV()
}

// ChipLoadSkew returns the coefficient of variation of per-chip DMA
// load under the baseline interleaved layout: 0 for perfectly even
// load, higher when some chips are naturally much hotter.
func (tr *Trace) ChipLoadSkew() float64 {
	chips, _, _ := MemoryGeometry()
	return trace.Analyze(tr.t).ChipLoadCV(chips)
}

// PopularityCurve returns the Figure 4 CDF: point i means the hottest
// PageFrac of pages receives AccessFrac of the DMA accesses.
func (tr *Trace) PopularityCurve(points int) []struct{ PageFrac, AccessFrac float64 } {
	pts := trace.Analyze(tr.t).PopularityCDF(points)
	out := make([]struct{ PageFrac, AccessFrac float64 }, len(pts))
	for i, p := range pts {
		out[i].PageFrac = p.PageFrac
		out[i].AccessFrac = p.AccessFrac
	}
	return out
}

// NewTrace returns an empty trace for manual construction.
func NewTrace(name string) *Trace {
	return &Trace{t: &trace.Trace{Name: name}}
}

// DMASource identifies which device class performs a transfer.
type DMASource int

const (
	// FromNetwork marks NIC-initiated transfers.
	FromNetwork DMASource = iota
	// FromDisk marks disk-initiated transfers.
	FromDisk
)

// makeDMARecord validates and builds one DMA record — the shared core
// of Trace.AppendDMA and TraceWriter.AppendDMA, so in-memory and
// file-streamed traces enforce identical field ranges.
func makeDMARecord(at time.Duration, src DMASource, bus int, page, pages int, toMemory bool) (trace.Record, error) {
	kind := trace.DMARead
	if toMemory {
		kind = trace.DMAWrite
	}
	s := trace.SrcNetwork
	if src == FromDisk {
		s = trace.SrcDisk
	}
	if pages <= 0 || pages > 1<<15 {
		return trace.Record{}, fmt.Errorf("dmamem: transfer of %d pages", pages)
	}
	if bus < 0 || bus > 255 {
		return trace.Record{}, fmt.Errorf("dmamem: bus %d", bus)
	}
	if page < 0 {
		return trace.Record{}, fmt.Errorf("dmamem: negative page %d", page)
	}
	return trace.Record{
		Time: fromStd(at), Kind: kind, Source: s,
		Bus: uint8(bus), Pages: uint16(pages), Page: memsys.PageID(page),
	}, nil
}

// makeProcRecord validates and builds one processor-access record.
func makeProcRecord(at time.Duration, page int, write bool) (trace.Record, error) {
	kind := trace.ProcRead
	if write {
		kind = trace.ProcWrite
	}
	if page < 0 {
		return trace.Record{}, fmt.Errorf("dmamem: negative page %d", page)
	}
	return trace.Record{
		Time: fromStd(at), Kind: kind, Source: trace.SrcProcessor,
		Page: memsys.PageID(page),
	}, nil
}

// AppendDMA appends a DMA transfer of pages consecutive pages starting
// at page, carried by I/O bus bus. Page size is the third value of
// MemoryGeometry (8 KB). Records must be appended in time order;
// toMemory selects the direction (true = device writes memory).
// Internally at is stored in integer picoseconds, the simulator's
// native resolution.
func (tr *Trace) AppendDMA(at time.Duration, src DMASource, bus int, page, pages int, toMemory bool) error {
	r, err := makeDMARecord(at, src, bus, page, pages, toMemory)
	if err != nil {
		return err
	}
	if err := tr.checkAppend(at, page); err != nil {
		return err
	}
	tr.t.Records = append(tr.t.Records, r)
	return nil
}

// checkAppend rejects a record before it enters the trace, so a failed
// append leaves the trace exactly as it was (and appends stay O(1):
// only the new record needs checking against the last one).
func (tr *Trace) checkAppend(at time.Duration, page int) error {
	if page < 0 {
		return fmt.Errorf("dmamem: negative page %d", page)
	}
	if n := len(tr.t.Records); n > 0 && fromStd(at) < tr.t.Records[n-1].Time {
		return fmt.Errorf("dmamem: record at %v before predecessor at %v; traces are appended in time order",
			at, time.Duration(tr.t.Records[n-1].Time/1000)*time.Nanosecond)
	}
	return nil
}

// AppendProcessorAccess appends one 64-byte processor access to page.
func (tr *Trace) AppendProcessorAccess(at time.Duration, page int, write bool) error {
	r, err := makeProcRecord(at, page, write)
	if err != nil {
		return err
	}
	if err := tr.checkAppend(at, page); err != nil {
		return err
	}
	tr.t.Records = append(tr.t.Records, r)
	return nil
}

// SetClientResponse declares the workload's mean client-perceived
// response time and the number of DMA transfers on a client request's
// critical path; the CP-Limit calibration uses both.
func (tr *Trace) SetClientResponse(mean time.Duration, transfersPerRequest float64) {
	tr.t.Meta.MeanClientResponse = sim.FromStd(mean)
	tr.t.Meta.TransfersPerClientRequest = transfersPerRequest
}

// SaveFile stores the trace as a .dmt container at path. The file can
// be replayed without loading it into memory by setting
// Simulation.TraceFile, inspected with StatTraceFile, or loaded back
// with ReadTraceFile.
func (tr *Trace) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.t.WriteDMT(f, trace.WriterOptions{}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTraceFile loads a .dmt container fully into memory — the inverse
// of SaveFile, for traces small enough to hold. Long traces should be
// replayed in place via Simulation.TraceFile instead.
func ReadTraceFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := trace.DecodeDMT(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Trace{t: t}, nil
}

// TraceFileInfo describes a .dmt container without reading its
// records: everything comes from the header and footer, so statting an
// hour-scale trace is instant.
type TraceFileInfo struct {
	// Name is the trace's label.
	Name string
	// Records is the total record count.
	Records int64
	// DMATransfers is the number of DMA transfer records; DMAPages is
	// the total pages they move.
	DMATransfers int64
	DMAPages     int64
	// Duration is the simulated span the trace covers.
	Duration time.Duration
	// ChunkRecords is the container's chunk size (records per chunk);
	// Chunks is the number of chunks. Replaying the file keeps at most
	// one decoded chunk in memory.
	ChunkRecords int
	Chunks       int64
}

// StatTraceFile reads a .dmt container's self-description from its
// header and footer without scanning the records.
func StatTraceFile(path string) (TraceFileInfo, error) {
	fr, err := trace.OpenDMTFile(path)
	if err != nil {
		return TraceFileInfo{}, err
	}
	defer fr.Close()
	sum := fr.Summary()
	return TraceFileInfo{
		Name:         sum.Name,
		Records:      sum.Records,
		DMATransfers: sum.DMATransfers,
		DMAPages:     sum.DMAPages,
		Duration:     time.Duration(sum.Duration.Seconds() * float64(time.Second)),
		ChunkRecords: sum.ChunkRecords,
		Chunks:       sum.Chunks,
	}, nil
}

// TraceWriter streams a trace straight to a .dmt container on disk,
// one record at a time, holding at most one chunk in memory: the way
// to produce traces far larger than RAM. Records must be appended in
// time order, exactly as with Trace's append methods; Close finalizes
// the container (an unclosed file is truncated and will be rejected on
// replay).
type TraceWriter struct {
	f *os.File
	w *trace.Writer
}

// CreateTraceFile creates a .dmt container at path and returns a
// streaming writer for a trace called name. The caller must Close it.
func CreateTraceFile(path, name string) (*TraceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := trace.NewWriter(f, name, trace.WriterOptions{})
	if err != nil {
		f.Close()
		return nil, err
	}
	return &TraceWriter{f: f, w: w}, nil
}

// AppendDMA streams one DMA transfer record; the arguments mean the
// same as Trace.AppendDMA's.
func (tw *TraceWriter) AppendDMA(at time.Duration, src DMASource, bus int, page, pages int, toMemory bool) error {
	r, err := makeDMARecord(at, src, bus, page, pages, toMemory)
	if err != nil {
		return err
	}
	return tw.w.Append(r)
}

// AppendProcessorAccess streams one 64-byte processor access record.
func (tw *TraceWriter) AppendProcessorAccess(at time.Duration, page int, write bool) error {
	r, err := makeProcRecord(at, page, write)
	if err != nil {
		return err
	}
	return tw.w.Append(r)
}

// SetClientResponse declares the workload's mean client-perceived
// response time and critical-path transfer count, stored in the
// container's footer for the CP-Limit calibration. It may be called at
// any time before Close.
func (tw *TraceWriter) SetClientResponse(mean time.Duration, transfersPerRequest float64) {
	tw.w.SetMeta(trace.Meta{
		MeanClientResponse:        sim.FromStd(mean),
		TransfersPerClientRequest: transfersPerRequest,
	})
}

// Close finalizes the container (footer, checksum) and closes the
// file. A TraceWriter that is never closed leaves an unreadable file.
func (tw *TraceWriter) Close() error {
	if err := tw.w.Close(); err != nil {
		tw.f.Close()
		return err
	}
	return tw.f.Close()
}

func fromStd(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) * 1000 }

// applyGeneratorOptions is the one Duration/Seed/rate defaulting rule
// every trace-generator option struct shares: a zero option keeps the
// generator's default, a non-zero option overrides it. The pointers
// address the fields of the generator's native config struct.
func applyGeneratorOptions(dur *sim.Duration, seed *uint64, rate *float64, oDur time.Duration, oSeed uint64, oRate float64) {
	if oDur != 0 {
		*dur = sim.FromStd(oDur)
	}
	if oSeed != 0 {
		*seed = oSeed
	}
	if oRate != 0 {
		*rate = oRate
	}
}

// SyntheticOptions parameterizes the paper's synthetic traces.
type SyntheticOptions struct {
	// Duration of the trace (default 100ms, as in the evaluation).
	Duration time.Duration
	// Seed for the deterministic generator.
	Seed uint64
	// RatePerMs is the Poisson DMA transfer arrival rate (default 100).
	RatePerMs float64
	// Alpha is the Zipf page-popularity skew (default 1.0).
	Alpha float64
	// ProcPerTransfer injects exactly this many processor accesses per
	// transfer (database traces; the Figure 9 sweep).
	ProcPerTransfer int
	// MixedSizes switches from uniform 8 KB transfers to the
	// multi-block mixture for the size-sensitivity study.
	MixedSizes bool
}

func (o SyntheticOptions) st() synth.StConfig {
	cfg := synth.DefaultSt()
	applyGeneratorOptions(&cfg.Duration, &cfg.Seed, &cfg.RatePerMs, o.Duration, o.Seed, o.RatePerMs)
	if o.Alpha != 0 {
		cfg.Alpha = o.Alpha
	}
	if o.MixedSizes {
		cfg.Sizes = synth.MixedSizes()
	}
	return cfg
}

// SyntheticStorageTrace builds the paper's Synthetic-St workload:
// Poisson network and disk DMA transfers with Zipf page popularity.
func SyntheticStorageTrace(o SyntheticOptions) (*Trace, error) {
	t, err := synth.GenerateSt(o.st())
	if err != nil {
		return nil, err
	}
	return &Trace{t: t}, nil
}

// SyntheticDatabaseTrace builds the paper's Synthetic-Db workload:
// network DMAs plus Poisson processor accesses (10000/ms by default).
func SyntheticDatabaseTrace(o SyntheticOptions) (*Trace, error) {
	cfg := synth.DbOf(o.st())
	if o.ProcPerTransfer > 0 {
		cfg.ProcPerTransfer = o.ProcPerTransfer
		cfg.ProcRatePerMs = 0
	}
	t, err := synth.GenerateDb(cfg)
	if err != nil {
		return nil, err
	}
	return &Trace{t: t}, nil
}

// ServerOptions parameterizes the full data-server workload models
// that synthesize the OLTP-St / OLTP-Db style traces of Table 2.
type ServerOptions struct {
	// Duration of the trace (default 100ms).
	Duration time.Duration
	// Seed for the deterministic generator.
	Seed uint64
	// RequestRatePerMs is the client request rate (default 45 for the
	// storage server, 100 for the database server).
	RequestRatePerMs float64
}

// apply overrides the generator config's duration, seed and rate
// fields with the options' non-zero values; every server constructor
// is a thin wrapper around its model's default config plus this.
func (o ServerOptions) apply(dur *sim.Duration, seed *uint64, rate *float64) {
	applyGeneratorOptions(dur, seed, rate, o.Duration, o.Seed, o.RequestRatePerMs)
}

// StorageServerTrace runs the storage-server model — client requests
// through a buffer cache, a disk array and a SAN — and returns the
// memory trace it induces along with its summary.
func StorageServerTrace(o ServerOptions) (*Trace, error) {
	cfg := server.DefaultStorage()
	o.apply(&cfg.Duration, &cfg.Seed, &cfg.RequestRatePerMs)
	res, err := server.GenerateStorage(cfg)
	if err != nil {
		return nil, err
	}
	return &Trace{t: res.Trace}, nil
}

// DatabaseServerTrace runs the database-server model — queries over a
// memory-resident bufferpool with processor accesses and result DMAs.
func DatabaseServerTrace(o ServerOptions) (*Trace, error) {
	cfg := server.DefaultDatabase()
	o.apply(&cfg.Duration, &cfg.Seed, &cfg.QueryRatePerMs)
	res, err := server.GenerateDatabase(cfg)
	if err != nil {
		return nil, err
	}
	return &Trace{t: res.Trace}, nil
}
