package netem

import (
	"time"

	"rrtcp/internal/sim"
)

// CBRSource emits fixed-size packets at a constant bit rate — the
// simple background load used by the fair-share experiment to congest
// a link without TCP dynamics.
type CBRSource struct {
	sched *sim.Scheduler
	pool  *PacketPool
	dst   Node
	flow  int
	size  int
	gap   sim.Time
	tick  *sim.Timer

	running bool
	stopped bool

	// Sent counts emitted packets.
	Sent uint64
}

// NewCBR builds a source sending size-byte packets at rateBps into dst,
// drawn from pool: the pool of the topology dst belongs to.
func NewCBR(sched *sim.Scheduler, pool *PacketPool, flow int, rateBps float64, size int, dst Node) *CBRSource {
	if size < 1 {
		size = 1
	}
	gap := sim.Time(float64(size*8) / rateBps * float64(time.Second))
	if gap < 1 {
		gap = 1
	}
	c := &CBRSource{sched: sched, pool: pool, dst: dst, flow: flow, size: size, gap: gap}
	c.tick = sched.NewTimer(c.emit)
	return c
}

// Start schedules the first emission after delay.
func (c *CBRSource) Start(delay sim.Time) error {
	if c.running {
		return nil
	}
	c.running = true
	return c.tick.At(c.sched.Now() + delay)
}

// Stop halts emission after the next tick.
func (c *CBRSource) Stop() { c.stopped = true }

func (c *CBRSource) emit() {
	if c.stopped {
		return
	}
	c.Sent++
	p := c.pool.Get()
	p.Flow = c.flow
	p.Kind = Data
	p.Seq = int64(c.Sent) * int64(c.size)
	p.Len = c.size
	p.Size = c.size
	c.dst.Receive(p)
	c.tick.Reset(c.gap)
}
