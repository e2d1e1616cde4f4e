package san

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
	bad.Bandwidth = 0
	if bad.validate() == nil {
		t.Error("zero bandwidth accepted")
	}
	bad = DefaultConfig()
	bad.PropDelay = -1
	if bad.validate() == nil {
		t.Error("negative delay accepted")
	}
	bad = DefaultConfig()
	bad.FrameOver = -1
	if bad.validate() == nil {
		t.Error("negative framing accepted")
	}
}

func TestSendTiming(t *testing.T) {
	cfg := Config{Bandwidth: 1e6, PropDelay: 10 * sim.Microsecond, FrameOver: 0}
	l, err := newLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 bytes at 1 MB/s = 1 ms serialization + 10 us propagation.
	got := l.send(0, 1000)
	want := sim.Time(1*sim.Millisecond + 10*sim.Microsecond)
	if got != want {
		t.Fatalf("delivery at %v, want %v", got, want)
	}
	if l.Messages != 1 || l.Bytes != 1000 {
		t.Fatalf("stats: %d msgs, %d bytes", l.Messages, l.Bytes)
	}
}

func TestSendFIFO(t *testing.T) {
	l, _ := newLink(DefaultConfig())
	d1 := l.send(0, 8192)
	d2 := l.send(0, 8192)
	if d2 <= d1 {
		t.Fatalf("FIFO violated: %v then %v", d1, d2)
	}
	// Gap between deliveries is exactly one serialization time.
	ser := sim.FromSeconds(float64(8192+64) / DefaultConfig().Bandwidth)
	if d2.Sub(d1) != ser {
		t.Fatalf("delivery gap %v, want %v", d2.Sub(d1), ser)
	}
}

func TestFramingOverheadCounts(t *testing.T) {
	with := Config{Bandwidth: 1e6, PropDelay: 0, FrameOver: 1000}
	l, _ := newLink(with)
	// Zero-payload message still takes 1 ms of wire time.
	if got := l.send(0, 0); got != sim.Time(1*sim.Millisecond) {
		t.Fatalf("framing-only send delivered at %v", got)
	}
}

func TestSendPanics(t *testing.T) {
	l, _ := newLink(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("negative size accepted")
		}
	}()
	l.send(0, -1)
}

func TestFabricDirectionsIndependent(t *testing.T) {
	f, err := NewFabric(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the to-server direction; replies must be unaffected.
	for i := 0; i < 100; i++ {
		f.WritePayloadArrival(0, 1<<20)
	}
	reply := f.Reply(0, 64)
	ser := sim.FromSeconds(float64(64+64) / DefaultConfig().Bandwidth)
	want := sim.Time(ser + DefaultConfig().PropDelay)
	if reply != want {
		t.Fatalf("reply at %v, want %v (directions coupled?)", reply, want)
	}
}

func TestFabricRequestResponse(t *testing.T) {
	f, _ := NewFabric(DefaultConfig())
	arr := f.RequestArrival(0)
	if arr <= 0 {
		t.Fatal("request arrival not delayed")
	}
	done := f.Reply(arr, 8192)
	if done <= arr {
		t.Fatal("reply before request arrival")
	}
}

func TestNewFabricError(t *testing.T) {
	bad := DefaultConfig()
	bad.Bandwidth = 0
	if _, err := NewFabric(bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

// Property: deliveries on one link are monotone in issue order and
// busy time equals total serialization.
func TestQuickLinkMonotone(t *testing.T) {
	f := func(sizes []uint16) bool {
		l, err := newLink(DefaultConfig())
		if err != nil {
			return false
		}
		var prev sim.Time
		now := sim.Time(0)
		for _, s := range sizes {
			d := l.send(now, int64(s))
			if d < prev {
				return false
			}
			prev = d
			now = now.Add(sim.Microsecond)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
