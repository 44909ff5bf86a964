package netem

import (
	"fmt"
	"math"
	"math/rand"

	"rrtcp/internal/sim"
)

// QueueDiscipline decides which packets a link's buffer accepts and in
// what order they drain. Implementations are drop-tail FIFO and RED.
type QueueDiscipline interface {
	// Enqueue offers a packet at the given instant; it returns false if
	// the discipline drops the packet.
	Enqueue(p *Packet, now sim.Time) bool
	// Dequeue removes and returns the next packet, or nil when empty.
	Dequeue() *Packet
	// Len reports the number of queued packets.
	Len() int
}

// ring is a growable circular FIFO. Unlike a slice FIFO advanced with
// fifo[1:], it reuses its backing array forever: steady-state
// push/pop traffic allocates nothing, and a vacated slot is zeroed so
// the ring never keeps a departed element reachable.
type ring[T any] struct {
	buf  []T // capacity always a power of two (or empty)
	head int
	n    int
}

// pktRing is the packet FIFO under every queue discipline.
type pktRing = ring[*Packet]

// slot returns the storage of the i-th element from the head.
func (r *ring[T]) slot(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// at returns the i-th element from the head, 0 <= i < n.
func (r *ring[T]) at(i int) T { return *r.slot(i) }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	*r.slot(r.n) = v
	r.n++
}

// pop removes and returns the head, or the zero value when empty.
func (r *ring[T]) pop() T {
	var zero T
	if r.n == 0 {
		return zero
	}
	s := r.slot(0)
	v := *s
	*s = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// popTail removes and returns the newest element of a non-empty ring.
func (r *ring[T]) popTail() T {
	var zero T
	s := r.slot(r.n - 1)
	v := *s
	*s = zero
	r.n--
	return v
}

// removeAt deletes the i-th element from the head, keeping the order of
// the rest.
func (r *ring[T]) removeAt(i int) {
	for ; i < r.n-1; i++ {
		*r.slot(i) = *r.slot(i + 1)
	}
	r.popTail()
}

func (r *ring[T]) grow() {
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]T, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.at(i)
	}
	r.buf, r.head = buf, 0
}

// DropTail is a finite FIFO measured in packets, as in the paper's
// Table 3 ("window size and buffer space at the gateways are measured
// in number of fixed-size packets").
type DropTail struct {
	limit int
	fifo  pktRing
}

var _ QueueDiscipline = (*DropTail)(nil)

// NewDropTail returns a FIFO holding at most limit packets. A limit
// below one is an error: such a queue drops everything, which in a
// congestion-control simulation is almost always a misconfiguration
// rather than an intent.
func NewDropTail(limit int) (*DropTail, error) {
	if limit < 1 {
		return nil, fmt.Errorf("netem: drop-tail limit must be >= 1 packet, got %d", limit)
	}
	return &DropTail{limit: limit}, nil
}

// Enqueue implements QueueDiscipline.
func (d *DropTail) Enqueue(p *Packet, _ sim.Time) bool {
	if d.fifo.n >= d.limit {
		return false
	}
	d.fifo.push(p)
	return true
}

// Dequeue implements QueueDiscipline.
func (d *DropTail) Dequeue() *Packet { return d.fifo.pop() }

// Len implements QueueDiscipline.
func (d *DropTail) Len() int { return d.fifo.n }

// Limit reports the configured packet limit.
func (d *DropTail) Limit() int { return d.limit }

// REDConfig carries the Random Early Detection parameters of the
// paper's Table 4.
type REDConfig struct {
	// MinThreshold and MaxThreshold bound the average queue region in
	// which packets are dropped probabilistically (packets).
	MinThreshold float64
	MaxThreshold float64
	// MaxDropProb is the drop probability at MaxThreshold.
	MaxDropProb float64
	// QueueWeight is the EWMA weight for the average queue estimate.
	QueueWeight float64
	// Limit is the physical buffer size in packets.
	Limit int
	// MeanPacketSize is used to age the average across idle periods,
	// in bytes (defaults to 1000 if zero).
	MeanPacketSize int
	// LinkBandwidthBps estimates the drain rate for idle aging; if
	// zero, idle aging is skipped.
	LinkBandwidthBps float64
}

// PaperREDConfig returns the Table 4 configuration: min 5, max 20,
// maxp 0.02, wq 0.002, buffer 25 packets.
func PaperREDConfig() REDConfig {
	return REDConfig{
		MinThreshold:     5,
		MaxThreshold:     20,
		MaxDropProb:      0.02,
		QueueWeight:      0.002,
		Limit:            25,
		MeanPacketSize:   1000,
		LinkBandwidthBps: 0.8e6,
	}
}

// REDQueue implements Random Early Detection (Floyd & Jacobson 1993):
// it tracks an exponentially weighted average queue size, drops nothing
// below the minimum threshold, drops with probability ramping to maxp
// between the thresholds (spread out by the count heuristic), and drops
// everything above the maximum threshold or when the physical buffer is
// full.
type REDQueue struct {
	cfg  REDConfig
	rng  *rand.Rand
	fifo pktRing

	avg       float64
	count     int // packets since last drop while in the random region
	idleSince sim.Time
	idle      bool

	// lastDropEarly distinguishes the most recent rejection for the
	// queue wrapper's telemetry: true for a probabilistic early drop,
	// false for a forced one.
	lastDropEarly bool

	// EarlyDrops and ForcedDrops split drops by cause for tracing.
	EarlyDrops  uint64
	ForcedDrops uint64
}

var _ QueueDiscipline = (*REDQueue)(nil)

// NewRED builds a RED queue using the provided deterministic random
// source for drop decisions. The configuration must describe a usable
// drop curve: a positive buffer, thresholds with min < max, a drop
// probability in (0, 1], and an EWMA weight in (0, 1].
func NewRED(cfg REDConfig, rng *rand.Rand) (*REDQueue, error) {
	if rng == nil {
		return nil, fmt.Errorf("netem: RED needs a random source")
	}
	if cfg.Limit < 1 {
		return nil, fmt.Errorf("netem: RED buffer limit must be >= 1 packet, got %d", cfg.Limit)
	}
	if cfg.MinThreshold < 0 || cfg.MaxThreshold <= cfg.MinThreshold {
		return nil, fmt.Errorf("netem: RED thresholds must satisfy 0 <= min < max, got min=%v max=%v",
			cfg.MinThreshold, cfg.MaxThreshold)
	}
	if cfg.MaxDropProb <= 0 || cfg.MaxDropProb > 1 {
		return nil, fmt.Errorf("netem: RED max drop probability must be in (0, 1], got %v", cfg.MaxDropProb)
	}
	if cfg.QueueWeight <= 0 || cfg.QueueWeight > 1 {
		return nil, fmt.Errorf("netem: RED queue weight must be in (0, 1], got %v", cfg.QueueWeight)
	}
	if cfg.MeanPacketSize <= 0 {
		cfg.MeanPacketSize = 1000
	}
	return &REDQueue{cfg: cfg, rng: rng, count: -1}, nil
}

// AvgQueue reports the current average queue estimate, for tests.
func (r *REDQueue) AvgQueue() float64 { return r.avg }

// Enqueue implements QueueDiscipline.
func (r *REDQueue) Enqueue(p *Packet, now sim.Time) bool {
	r.updateAverage(now)
	switch {
	case r.fifo.n >= r.cfg.Limit:
		r.ForcedDrops++
		r.count = 0
		r.lastDropEarly = false
		return false
	case r.avg >= r.cfg.MaxThreshold:
		r.ForcedDrops++
		r.count = 0
		r.lastDropEarly = false
		return false
	case r.avg >= r.cfg.MinThreshold:
		r.count++
		pb := r.cfg.MaxDropProb * (r.avg - r.cfg.MinThreshold) /
			(r.cfg.MaxThreshold - r.cfg.MinThreshold)
		pa := pb
		if denom := 1 - float64(r.count)*pb; denom > 0 {
			pa = pb / denom
		} else {
			pa = 1
		}
		if r.rng.Float64() < pa {
			r.EarlyDrops++
			r.count = 0
			r.lastDropEarly = true
			return false
		}
	default:
		r.count = -1
	}
	r.fifo.push(p)
	return true
}

func (r *REDQueue) updateAverage(now sim.Time) {
	if r.fifo.n > 0 || !r.idle {
		r.avg = (1-r.cfg.QueueWeight)*r.avg + r.cfg.QueueWeight*float64(r.fifo.n)
		return
	}
	// Queue has been idle: age the average as if m small packets had
	// drained during the idle period (Floyd & Jacobson eq. 3).
	if r.cfg.LinkBandwidthBps > 0 {
		idleSeconds := (now - r.idleSince).Seconds()
		perPacket := float64(r.cfg.MeanPacketSize*8) / r.cfg.LinkBandwidthBps
		if perPacket > 0 {
			m := idleSeconds / perPacket
			r.avg *= math.Pow(1-r.cfg.QueueWeight, m)
		}
	}
	r.idle = false
	r.avg = (1-r.cfg.QueueWeight)*r.avg + r.cfg.QueueWeight*float64(r.fifo.n)
}

// Dequeue implements QueueDiscipline.
func (r *REDQueue) Dequeue() *Packet {
	p := r.fifo.pop()
	if p != nil && r.fifo.n == 0 {
		r.idle = true
		// idleSince is stamped by MarkIdle, which the owning Queue calls
		// with the scheduler clock right after draining.
	}
	return p
}

// MarkIdle records the instant the queue went empty; the Link calls
// this so idle aging has a timestamp. Safe to call at any time.
func (r *REDQueue) MarkIdle(now sim.Time) {
	if r.fifo.n == 0 {
		r.idle = true
		r.idleSince = now
	}
}

// Len implements QueueDiscipline.
func (r *REDQueue) Len() int { return r.fifo.n }
