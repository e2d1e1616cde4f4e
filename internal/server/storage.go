package server

import (
	"fmt"
	"math"

	"dmamem/internal/disk"
	"dmamem/internal/memsys"
	"dmamem/internal/san"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// StorageConfig parameterizes the storage-server workload model that
// synthesizes our OLTP-St trace. The request path follows Figure 1:
// a client read that hits the buffer cache triggers one network DMA
// out of memory; a miss triggers a disk DMA into memory followed by
// the network DMA; a client write triggers a network DMA into memory
// and a write-through disk DMA out of it.
type StorageConfig struct {
	Seed     uint64
	Duration sim.Duration
	// RequestRatePerMs is the Poisson client request arrival rate.
	RequestRatePerMs float64
	// ReadFraction of requests are reads.
	ReadFraction float64
	// Objects is the dataset size in objects; object sizes come from
	// Sizes (stable per object). The dataset normally exceeds the
	// cache, producing the miss traffic that drives the disk.
	Objects int
	// Alpha is the Zipf skew of object popularity. The default is
	// calibrated so the page-popularity CDF of the resulting memory
	// trace matches Figure 4 (~20% of pages get ~60% of accesses).
	Alpha float64
	// Sizes is the object size mixture; nil means synth.DefaultSizes.
	Sizes []synth.SizeClass
	// CacheFrames is the buffer cache capacity in page frames.
	CacheFrames int
	PageBytes   int
	Buses       int
	// CPUTime models request parsing and index lookup (meta-data work;
	// the paper keeps meta-data in a separate device).
	CPUTime sim.Duration
	// BusBandwidth is the I/O bus rate used for nominal DMA transfer
	// durations on the response path.
	BusBandwidth float64

	Disk        disk.Config
	DiskCount   int
	StripeBytes int64
	SAN         san.Config
}

// DefaultStorage returns the OLTP-St calibration: 45 client
// requests/ms so the trace carries ~45 network transfers/ms, with the
// cache:dataset ratio tuned so disk DMAs run at roughly the paper's
// 16.7/ms.
func DefaultStorage() StorageConfig {
	g := memsys.Default()
	sanCfg := san.DefaultConfig()
	// A storage server pushing ~1 GB/s of payload has several FC ports;
	// model the aggregate fabric so the SAN is not the bottleneck.
	sanCfg.Bandwidth = 2e9
	return StorageConfig{
		Seed:             7,
		Duration:         100 * sim.Millisecond,
		RequestRatePerMs: 45,
		ReadFraction:     0.75,
		Objects:          500000, // ~4 GB dataset behind a 1 GB cache
		Alpha:            1.0,
		CacheFrames:      g.TotalPages(),
		PageBytes:        g.PageBytes,
		Buses:            3,
		CPUTime:          50 * sim.Microsecond, // array controller firmware per request
		BusBandwidth:     1.064e9,
		Disk:             disk.DefaultConfig(),
		DiskCount:        80, // sized for ~85% backend utilization: realistic multi-ms miss latency
		StripeBytes:      64 << 10,
		SAN:              sanCfg,
	}
}

func (c StorageConfig) validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("server: nonpositive duration %v", c.Duration)
	case c.RequestRatePerMs <= 0:
		return fmt.Errorf("server: nonpositive request rate %g", c.RequestRatePerMs)
	case c.ReadFraction < 0 || c.ReadFraction > 1:
		return fmt.Errorf("server: read fraction %g outside [0,1]", c.ReadFraction)
	case c.Objects <= 0 || c.Objects > math.MaxInt32:
		return fmt.Errorf("server: %d objects (object IDs are int32)", c.Objects)
	case !synth.ValidSkew(c.Alpha):
		return fmt.Errorf("server: Zipf skew Alpha %g is not finite and non-negative", c.Alpha)
	case c.CacheFrames <= 0:
		return fmt.Errorf("server: %d cache frames", c.CacheFrames)
	case c.PageBytes <= 0:
		return fmt.Errorf("server: page size %d", c.PageBytes)
	case c.Buses <= 0 || c.Buses > 255:
		return fmt.Errorf("server: %d buses", c.Buses)
	case c.BusBandwidth <= 0:
		return fmt.Errorf("server: bus bandwidth %g", c.BusBandwidth)
	case c.DiskCount <= 0:
		return fmt.Errorf("server: %d disks", c.DiskCount)
	}
	if c.Sizes != nil {
		if err := synth.CheckSizes(c.Sizes, c.CacheFrames); err != nil {
			return fmt.Errorf("server: %w", err)
		}
	}
	return nil
}

// StorageResult is the generated trace plus workload-level statistics.
type StorageResult struct {
	Trace *trace.Trace
	// Requests served, and the cache behaviour behind them.
	Requests  int64
	HitRatio  float64
	MeanResp  sim.Duration
	MeanDisk  sim.Duration // mean disk access time on the miss path
	DiskReads int64
}

// objectPages returns the stable size of an object, drawn from the
// mixture by hashing the ID; a mixture of one class needs no draw.
func objectPages(id objectID, sizes []synth.SizeClass, totalWeight float64) int {
	if len(sizes) == 1 {
		return sizes[0].Pages
	}
	// splitmix64 hash of the id for a stable uniform draw.
	x := uint64(id) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / (1 << 53) * totalWeight
	acc := 0.0
	for _, c := range sizes {
		acc += c.Weight
		if u <= acc {
			return c.Pages
		}
	}
	return sizes[len(sizes)-1].Pages
}

// GenerateStorage runs the storage-server model and returns the memory
// trace it induces.
func GenerateStorage(c StorageConfig) (*StorageResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.Sizes == nil {
		c.Sizes = synth.DefaultSizes()
	}
	var totalWeight float64
	maxPages := 0
	for _, s := range c.Sizes {
		totalWeight += s.Weight
		if s.Pages > maxPages {
			maxPages = s.Pages
		}
	}

	rng := synth.NewRNG(c.Seed)
	zipf := synth.NewZipf(c.Objects, c.Alpha)
	perm := rng.Perm(c.Objects) // scatter popularity over object IDs

	cache, err := newBufferCache(c.CacheFrames, c.Objects)
	if err != nil {
		return nil, err
	}
	array, err := disk.NewArray(c.DiskCount, c.Disk, c.StripeBytes)
	if err != nil {
		return nil, err
	}
	fabric, err := san.NewFabric(c.SAN)
	if err != nil {
		return nil, err
	}

	// The cache is keyed by popularity rank rather than object ID. The
	// two are a bijection through perm, and the cache never looks at a
	// key's value, so residency, placement and eviction are unchanged;
	// but the warm-up fill below walks the index in order, allocating
	// only the index pages of the ranks it holds, and the Zipf-skewed
	// lookups stay near its start instead of striking a dataset-sized
	// table at random.
	//
	// Pre-warm the cache with the most popular objects, the steady
	// state an LRU cache converges to under a skewed reference stream.
	// Without this, a finite trace is dominated by cold misses and the
	// frame-popularity distribution degenerates to uniform.
	cache.fill(func(rank objectID) int {
		return objectPages(objectID(perm[rank]), c.Sizes, totalWeight)
	})

	res := &StorageResult{Trace: &trace.Trace{Name: "OLTP-St"}}
	tr := res.Trace
	meanGap := 1e-3 / c.RequestRatePerMs

	dmaDur := func(pages int) sim.Duration {
		return sim.FromSeconds(float64(pages*c.PageBytes) / c.BusBandwidth)
	}
	emit := func(at sim.Time, kind trace.Kind, src trace.Source, start memsys.PageID, pages int) {
		tr.Records = append(tr.Records, trace.Record{
			Time: at, Kind: kind, Source: src,
			Bus: uint8(rng.Intn(c.Buses)), Pages: uint16(pages), Page: start,
		})
	}

	var (
		now          sim.Time
		hits         int64
		respSum      sim.Duration
		transfersSum int64
		diskSum      sim.Duration
	)
	for {
		now = now.Add(sim.FromSeconds(rng.Exp(meanGap)))
		if now > sim.Time(c.Duration) {
			break
		}
		rank := objectID(zipf.Sample(rng))
		obj := objectID(perm[rank])
		pages := objectPages(obj, c.Sizes, totalWeight)
		bytes := int64(pages) * int64(c.PageBytes)
		diskOffset := int64(obj) * int64(maxPages) * int64(c.PageBytes)
		res.Requests++

		if rng.Float64() < c.ReadFraction {
			arrive := fabric.RequestArrival(now)
			ready := arrive.Add(c.CPUTime)
			start, _, ok := cache.lookup(rank)
			var sendAt sim.Time
			if ok {
				hits++
				sendAt = ready
				transfersSum++
			} else {
				diskDone := array.Access(ready, diskOffset, bytes)
				diskSum += diskDone.Sub(ready)
				res.DiskReads++
				start = cache.insert(rank, pages)
				emit(diskDone, trace.DMAWrite, trace.SrcDisk, start, pages)
				sendAt = diskDone.Add(dmaDur(pages))
				transfersSum += 2
			}
			emit(sendAt, trace.DMARead, trace.SrcNetwork, start, pages)
			done := fabric.Reply(sendAt.Add(dmaDur(pages)), bytes)
			respSum += done.Sub(now)
		} else {
			// Write: payload travels with the request; NIC DMAs it into
			// memory, then write-through to disk.
			arrive := fabric.WritePayloadArrival(now, bytes)
			ready := arrive.Add(c.CPUTime)
			start, _, ok := cache.lookup(rank)
			if ok {
				hits++
			} else {
				start = cache.insert(rank, pages)
			}
			emit(ready, trace.DMAWrite, trace.SrcNetwork, start, pages)
			memDone := ready.Add(dmaDur(pages))
			emit(memDone, trace.DMARead, trace.SrcDisk, start, pages)
			array.Access(memDone, diskOffset, bytes) // timing only; write-through is async
			done := fabric.Reply(memDone, 0)         // ack after memory commit
			respSum += done.Sub(now)
			transfersSum += 2
		}
	}
	tr.SortByTime()
	// Records on long miss paths can land past the configured horizon;
	// drop them so trace duration and rates reflect the configuration.
	tr.Records = tr.Clip(sim.Time(c.Duration)).Records
	if res.Requests > 0 {
		res.MeanResp = sim.Duration(int64(respSum) / res.Requests)
		tr.Meta.MeanClientResponse = res.MeanResp
		tr.Meta.TransfersPerClientRequest = float64(transfersSum) / float64(res.Requests)
		res.HitRatio = float64(hits) / float64(res.Requests) // one lookup per request
	}
	if res.DiskReads > 0 {
		res.MeanDisk = sim.Duration(int64(diskSum) / res.DiskReads)
	}
	return res, nil
}
