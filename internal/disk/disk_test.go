package disk

import (
	"testing"
	"testing/quick"

	"dmamem/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.RPM = 0
	if bad.validate() == nil {
		t.Error("zero RPM accepted")
	}
	bad = DefaultConfig()
	bad.Cylinders = -1
	if bad.validate() == nil {
		t.Error("negative cylinders accepted")
	}
	bad = DefaultConfig()
	bad.SeekBase = -1
	if bad.validate() == nil {
		t.Error("negative seek accepted")
	}
}

func TestRotationPeriod(t *testing.T) {
	c := DefaultConfig()
	// 15000 RPM = 4 ms per revolution.
	if got := c.rotationPeriod(); got != 4*sim.Millisecond {
		t.Fatalf("rotation period = %v, want 4ms", got)
	}
}

func TestSeekCurve(t *testing.T) {
	d, err := newDrive(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.seekTimeFor(0) != 0 {
		t.Error("zero-distance seek should be free")
	}
	s1, s100, s10000 := d.seekTimeFor(1), d.seekTimeFor(100), d.seekTimeFor(10000)
	if !(s1 < s100 && s100 < s10000) {
		t.Fatalf("seek times not increasing: %v %v %v", s1, s100, s10000)
	}
	if d.seekTimeFor(-100) != s100 {
		t.Error("seek time should be symmetric in direction")
	}
	// Short seeks dominated by base + sqrt: a 1-cyl seek is still
	// hundreds of microseconds.
	if s1 < 400*sim.Microsecond {
		t.Fatalf("1-cyl seek = %v, below base", s1)
	}
}

func TestAccessTiming(t *testing.T) {
	d, err := newDrive(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := d.access(0, 0, 8192)
	if done <= 0 {
		t.Fatal("zero latency access")
	}
	// Latency must be at least the media transfer time and at most
	// seek max + full rotation + transfer.
	minXfer := sim.FromSeconds(8192.0 / 75e6)
	if sim.Duration(done) < minXfer {
		t.Fatalf("latency %v below transfer time %v", done, minXfer)
	}
	max := d.seekTimeFor(65535) + 4*sim.Millisecond + minXfer
	if sim.Duration(done) > max {
		t.Fatalf("latency %v above worst case %v", done, max)
	}
	if d.Requests != 1 {
		t.Fatalf("requests = %d", d.Requests)
	}
}

func TestFIFOQueueing(t *testing.T) {
	d, err := newDrive(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := d.access(0, 0, 8192)
	// Second request issued at t=0 must wait for the first.
	second := d.access(0, 1<<20, 8192)
	if second <= first {
		t.Fatalf("FIFO violated: first done %v, second done %v", first, second)
	}
	if d.QueueTime == 0 {
		t.Fatal("queueing time not recorded")
	}
	if d.freeAt != second {
		t.Fatalf("FreeAt = %v, want %v", d.freeAt, second)
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	// Mean service time of sequential accesses should beat scattered
	// ones (no seeks, short rotation gaps).
	cfg := DefaultConfig()
	seq, _ := newDrive(cfg)
	now := sim.Time(0)
	for i := 0; i < 64; i++ {
		now = seq.access(now, int64(i)*8192, 8192)
	}
	rnd, _ := newDrive(cfg)
	now = 0
	for i := 0; i < 64; i++ {
		offset := int64(i*7919%5000) * int64(cfg.SectorBytes) * int64(cfg.SectorsPerTrk) * 97
		now = rnd.access(now, offset, 8192)
	}
	seqMean := seq.BusyTime / sim.Duration(seq.Requests)
	rndMean := rnd.BusyTime / sim.Duration(rnd.Requests)
	if seqMean >= rndMean {
		t.Fatalf("sequential %v not faster than random %v", seqMean, rndMean)
	}
	if rnd.SeekTime == 0 {
		t.Fatal("random workload recorded no seek time")
	}
}

func TestAccessPanics(t *testing.T) {
	d, _ := newDrive(DefaultConfig())
	for _, f := range []func(){
		func() { d.access(0, -1, 10) },
		func() { d.access(0, 0, 0) },
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

func TestArrayStriping(t *testing.T) {
	a, err := NewArray(4, DefaultConfig(), 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.disks) != 4 {
		t.Fatalf("disks = %d", len(a.disks))
	}
	// A 256 KB request spans all four stripe units -> all four disks.
	a.Access(0, 0, 256<<10)
	busy := 0
	for _, d := range a.disks {
		if d.Requests > 0 {
			busy++
		}
	}
	if busy != 4 {
		t.Fatalf("striped request touched %d disks, want 4", busy)
	}
}

func TestArraySmallRequestOneDisk(t *testing.T) {
	a, _ := NewArray(4, DefaultConfig(), 64<<10)
	a.Access(0, 0, 8192)
	busy := 0
	for _, d := range a.disks {
		busy += int(d.Requests)
	}
	if busy != 1 {
		t.Fatalf("8 KB request touched %d disks, want 1", busy)
	}
}

func TestArrayParallelismHelps(t *testing.T) {
	// Two simultaneous page reads on different stripes should overlap
	// on an array but serialize on one disk.
	single, _ := NewArray(1, DefaultConfig(), 64<<10)
	t1 := single.Access(0, 0, 8192)
	t1 = single.Access(0, 64<<10, 8192)

	par, _ := NewArray(2, DefaultConfig(), 64<<10)
	p1 := par.Access(0, 0, 8192)
	p2 := par.Access(0, 64<<10, 8192)
	last := p1
	if p2 > last {
		last = p2
	}
	if last >= t1 {
		t.Fatalf("array (%v) not faster than single disk (%v)", last, t1)
	}
}

func TestArrayErrors(t *testing.T) {
	if _, err := NewArray(0, DefaultConfig(), 1); err == nil {
		t.Error("zero disks accepted")
	}
	if _, err := NewArray(1, DefaultConfig(), 0); err == nil {
		t.Error("zero stripe accepted")
	}
	bad := DefaultConfig()
	bad.RPM = 0
	if _, err := NewArray(1, bad, 64<<10); err == nil {
		t.Error("bad config accepted")
	}
}

// Property: completion times are nondecreasing when requests are issued
// in time order to one disk (FIFO), and every access takes positive
// time.
func TestQuickFIFOMonotone(t *testing.T) {
	f := func(offsets []uint32) bool {
		d, err := newDrive(DefaultConfig())
		if err != nil {
			return false
		}
		now := sim.Time(0)
		var prevDone sim.Time
		for _, o := range offsets {
			done := d.access(now, int64(o), 4096)
			if done <= now || done < prevDone {
				return false
			}
			prevDone = done
			now = now.Add(100 * sim.Microsecond)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: busy-time accounting decomposes exactly.
func TestQuickBusyDecomposition(t *testing.T) {
	f := func(offsets []uint32) bool {
		d, err := newDrive(DefaultConfig())
		if err != nil {
			return false
		}
		now := sim.Time(0)
		for _, o := range offsets {
			now = d.access(now, int64(o), 4096)
		}
		return d.BusyTime == d.SeekTime+d.RotTime+d.XferTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
