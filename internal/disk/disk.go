// Package disk is a simplified disk-array timing model standing in for
// the DiskSim simulator the paper drives its storage-server trace
// collection with. It models per-disk seek time (affine + square-root
// curve), rotational latency derived from the platter position at
// request time, media transfer time, FIFO queueing, and striping across
// an array.
//
// Only timing matters here: the storage-server workload model uses the
// completion times to place disk-DMA records in the generated traces.
// Absolute disk latencies shift when miss-path transfers happen, which
// preserves the DMA arrival statistics that the memory energy results
// depend on.
package disk

import (
	"fmt"
	"math"

	"dmamem/internal/sim"
)

// Config describes one disk. The defaults resemble a 15k RPM SCSI
// server disk of the paper's era (Seagate Cheetah class).
type Config struct {
	Cylinders     int
	RPM           float64
	SeekBase      sim.Duration // single-track seek overhead
	SeekPerCyl    sim.Duration // linear seek coefficient
	SeekSqrt      sim.Duration // sqrt seek coefficient
	TransferRate  float64      // media rate, bytes/s
	SectorBytes   int
	SectorsPerTrk int
}

// DefaultConfig returns a 15k RPM, 73 GB-class disk.
func DefaultConfig() Config {
	return Config{
		Cylinders:     65535,
		RPM:           15000,
		SeekBase:      400 * sim.Microsecond,
		SeekPerCyl:    8 * sim.Nanosecond,
		SeekSqrt:      60 * sim.Microsecond,
		TransferRate:  75e6,
		SectorBytes:   512,
		SectorsPerTrk: 600,
	}
}

// validate reports a descriptive error for nonsensical configs.
func (c Config) validate() error {
	switch {
	case c.Cylinders <= 0:
		return fmt.Errorf("disk: Cylinders = %d", c.Cylinders)
	case c.RPM <= 0:
		return fmt.Errorf("disk: RPM = %g", c.RPM)
	case c.TransferRate <= 0:
		return fmt.Errorf("disk: TransferRate = %g", c.TransferRate)
	case c.SectorBytes <= 0:
		return fmt.Errorf("disk: SectorBytes = %d", c.SectorBytes)
	case c.SectorsPerTrk <= 0:
		return fmt.Errorf("disk: SectorsPerTrk = %d", c.SectorsPerTrk)
	case c.SeekBase < 0 || c.SeekPerCyl < 0 || c.SeekSqrt < 0:
		return fmt.Errorf("disk: negative seek coefficient")
	}
	return nil
}

// rotationPeriod returns one full revolution.
func (c Config) rotationPeriod() sim.Duration {
	return sim.FromSeconds(60.0 / c.RPM)
}

// drive models one spindle with a FIFO queue.
type drive struct {
	cfg     Config
	headCyl int
	freeAt  sim.Time

	// Statistics.
	Requests  int64
	BusyTime  sim.Duration
	SeekTime  sim.Duration
	RotTime   sim.Duration
	XferTime  sim.Duration
	QueueTime sim.Duration
}

// newDrive returns a disk with the head parked at cylinder 0.
func newDrive(cfg Config) (*drive, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &drive{cfg: cfg}, nil
}

// seekTimeFor returns the time to move the head across dist cylinders.
func (d *drive) seekTimeFor(dist int) sim.Duration {
	if dist == 0 {
		return 0
	}
	if dist < 0 {
		dist = -dist
	}
	return d.cfg.SeekBase +
		sim.Duration(float64(d.cfg.SeekPerCyl)*float64(dist)) +
		sim.Duration(float64(d.cfg.SeekSqrt)*math.Sqrt(float64(dist)))
}

// cylinderOf maps a byte offset to a cylinder (sectors fill tracks,
// tracks fill cylinders round-robin through the address space).
func (d *drive) cylinderOf(offset int64) int {
	sector := offset / int64(d.cfg.SectorBytes)
	track := sector / int64(d.cfg.SectorsPerTrk)
	return int(track % int64(d.cfg.Cylinders))
}

// angleOf maps a byte offset to the rotational angle (fraction of a
// revolution) at which its first sector passes under the head.
func (d *drive) angleOf(offset int64) float64 {
	sector := offset / int64(d.cfg.SectorBytes)
	return float64(sector%int64(d.cfg.SectorsPerTrk)) / float64(d.cfg.SectorsPerTrk)
}

// access issues a request for n bytes at the given byte offset at time
// now and returns the completion time. Requests queue FIFO: service
// starts at max(now, previous completion).
func (d *drive) access(now sim.Time, offset, n int64) sim.Time {
	if offset < 0 || n <= 0 {
		panic(fmt.Sprintf("disk: Access(offset=%d, n=%d)", offset, n))
	}
	start := now
	if d.freeAt > start {
		d.QueueTime += d.freeAt.Sub(start)
		start = d.freeAt
	}
	cyl := d.cylinderOf(offset)
	seek := d.seekTimeFor(cyl - d.headCyl)
	d.headCyl = cyl

	// Rotational latency: where is the platter when the seek ends?
	period := d.cfg.rotationPeriod()
	atHead := float64(int64(start.Add(seek))%int64(period)) / float64(period)
	target := d.angleOf(offset)
	frac := target - atHead
	if frac < 0 {
		frac++
	}
	rot := sim.Duration(float64(period) * frac)

	xfer := sim.FromSeconds(float64(n) / d.cfg.TransferRate)
	done := start.Add(seek + rot + xfer)

	d.Requests++
	d.SeekTime += seek
	d.RotTime += rot
	d.XferTime += xfer
	d.BusyTime += seek + rot + xfer
	d.freeAt = done
	return done
}

// Array stripes data over several identical disks (RAID-0 style) with
// a fixed stripe unit.
type Array struct {
	disks       []*drive
	stripeBytes int64
}

// NewArray builds an array of n disks with the given config and stripe
// unit in bytes.
func NewArray(n int, cfg Config, stripeBytes int64) (*Array, error) {
	if n <= 0 {
		return nil, fmt.Errorf("disk: array of %d disks", n)
	}
	if stripeBytes <= 0 {
		return nil, fmt.Errorf("disk: stripe unit %d", stripeBytes)
	}
	a := &Array{stripeBytes: stripeBytes}
	for i := 0; i < n; i++ {
		d, err := newDrive(cfg)
		if err != nil {
			return nil, err
		}
		a.disks = append(a.disks, d)
	}
	return a, nil
}

// Access reads or writes n bytes at a logical byte offset, splitting
// the request across stripe units; it completes when the slowest
// member completes.
func (a *Array) Access(now sim.Time, offset, n int64) sim.Time {
	if offset < 0 || n <= 0 {
		panic(fmt.Sprintf("disk: array Access(offset=%d, n=%d)", offset, n))
	}
	var done sim.Time
	for n > 0 {
		stripe := offset / a.stripeBytes
		diskIdx := int(stripe % int64(len(a.disks)))
		within := offset % a.stripeBytes
		chunk := a.stripeBytes - within
		if chunk > n {
			chunk = n
		}
		// The member disk sees the offset within its own address space.
		memberOffset := (stripe/int64(len(a.disks)))*a.stripeBytes + within
		if t := a.disks[diskIdx].access(now, memberOffset, chunk); t > done {
			done = t
		}
		offset += chunk
		n -= chunk
	}
	return done
}
