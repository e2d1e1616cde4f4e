// Package san models the storage-area network between clients and a
// data server: a full-duplex link with bandwidth, propagation delay,
// and FIFO serialization per direction, plus a tiny request/response
// framing used by the workload models.
//
// Like the disk model, only timing matters: the workload models use it
// to place network-DMA trace records and to compute client-perceived
// response times, the quantity the paper's CP-Limit is defined
// against.
package san

import (
	"fmt"

	"dmamem/internal/sim"
)

// Config describes the SAN link. The defaults model a 2 Gb/s Fibre
// Channel fabric of the paper's era with datacenter-scale propagation.
type Config struct {
	Bandwidth float64      // bytes/s per direction
	PropDelay sim.Duration // one-way propagation + switching delay
	FrameOver int          // per-message framing overhead in bytes
}

// DefaultConfig returns a 2 Gb/s FC-class link.
func DefaultConfig() Config {
	return Config{
		Bandwidth: 200e6,
		PropDelay: 20 * sim.Microsecond,
		FrameOver: 64,
	}
}

// validate reports a descriptive error for nonsensical configs.
func (c Config) validate() error {
	switch {
	case c.Bandwidth <= 0:
		return fmt.Errorf("san: Bandwidth = %g", c.Bandwidth)
	case c.PropDelay < 0:
		return fmt.Errorf("san: PropDelay = %v", c.PropDelay)
	case c.FrameOver < 0:
		return fmt.Errorf("san: FrameOver = %d", c.FrameOver)
	}
	return nil
}

// Link is one direction of the SAN. Messages serialize FIFO onto the
// wire; delivery is serialization + propagation.
type Link struct {
	cfg    Config
	freeAt sim.Time

	Messages int64
	Bytes    int64
	BusyTime sim.Duration
}

// newLink builds a link.
func newLink(cfg Config) (*Link, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Link{cfg: cfg}, nil
}

// send puts n payload bytes on the wire at time now and returns the
// delivery time at the far end.
func (l *Link) send(now sim.Time, n int64) sim.Time {
	if n < 0 {
		panic(fmt.Sprintf("san: Send(%d bytes)", n))
	}
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	wire := n + int64(l.cfg.FrameOver)
	ser := sim.FromSeconds(float64(wire) / l.cfg.Bandwidth)
	l.freeAt = start.Add(ser)
	l.Messages++
	l.Bytes += n
	l.BusyTime += ser
	return l.freeAt.Add(l.cfg.PropDelay)
}

// deliver returns the delivery time of n payload bytes put on the wire
// at now, modelling serialization and propagation but not cross-message
// queueing. Open-loop trace generators use it for messages whose issue
// times are computed out of order (Send's FIFO would otherwise queue a
// past message behind a future one). Utilization statistics still
// accumulate.
func (l *Link) deliver(now sim.Time, n int64) sim.Time {
	if n < 0 {
		panic(fmt.Sprintf("san: Deliver(%d bytes)", n))
	}
	wire := n + int64(l.cfg.FrameOver)
	ser := sim.FromSeconds(float64(wire) / l.cfg.Bandwidth)
	l.Messages++
	l.Bytes += n
	l.BusyTime += ser
	return now.Add(ser + l.cfg.PropDelay)
}

// Fabric bundles the two directions between clients and the server.
type Fabric struct {
	// ToServer carries client requests and write payloads.
	ToServer *Link
	// ToClient carries read payloads and acknowledgements.
	ToClient *Link
}

// NewFabric builds a full-duplex fabric.
func NewFabric(cfg Config) (*Fabric, error) {
	in, err := newLink(cfg)
	if err != nil {
		return nil, err
	}
	out, err := newLink(cfg)
	if err != nil {
		return nil, err
	}
	return &Fabric{ToServer: in, ToClient: out}, nil
}

// RequestArrival returns when a client request issued at now reaches
// the server (requests are small control messages).
func (f *Fabric) RequestArrival(now sim.Time) sim.Time {
	return f.ToServer.send(now, 0)
}

// Reply returns when n payload bytes sent from the server at now reach
// the client. Replies use Deliver because the workload models compute
// their send times out of order.
func (f *Fabric) Reply(now sim.Time, n int64) sim.Time {
	return f.ToClient.deliver(now, n)
}

// WritePayloadArrival returns when n payload bytes pushed by a client
// at now finish arriving at the server.
func (f *Fabric) WritePayloadArrival(now sim.Time, n int64) sim.Time {
	return f.ToServer.send(now, n)
}
