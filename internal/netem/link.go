package netem

import (
	"fmt"
	"math"
	"time"

	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// Must unwraps a constructor result, panicking on error. It is for
// call sites whose parameters are compile-time constants already known
// to be valid (experiment configs, tests), in the spirit of
// regexp.MustCompile.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Link is a point-to-point unidirectional link with a fixed bandwidth
// and propagation delay, fed by an attached queue. It models the
// (transmission + propagation) pipeline of an ns-2 duplex-link half:
// packets are serialized one at a time at the link rate, then propagate
// for Delay before arriving at the downstream node.
type Link struct {
	sched *sim.Scheduler
	// BandwidthBps is the link rate in bits per second.
	BandwidthBps float64
	// Delay is the one-way propagation delay.
	Delay sim.Time
	// Dst receives packets after transmission + propagation.
	Dst Node

	// queue wraps the discipline the link drains. fifo is the drop-tail
	// of a link given no discipline of its own. Both are held by value,
	// so a topology lays each link out as one piece of one block.
	queue Queue
	fifo  DropTail

	// busy is set while a packet serializes. down marks a failed link:
	// nothing serializes while set, and every packet on the wire when the
	// failure began is lost. owes is set while the serialization
	// completion is not pushed but reserved under the key owed: nothing
	// was queued behind the packet when it started, and nothing has been
	// since (see transmitNext, settle).
	busy, down, owes bool
	owed             sim.Key

	// wires and txs are the world's lanes, shared by all its links: wires
	// holds the packets propagating toward their Dst (never cancelled; a
	// flap drops them on arrival), one lane per distinct tx+propagation
	// delay, and txs the serialization completions that fire
	// transmitNext, one lane per distinct tx delay. last is what the
	// previous packet used: its size, that size's transmission delay at
	// the current rate, and the lanes it was pushed on.
	wires *sim.Lanes[wirePkt]
	txs   *sim.Lanes[*Link]
	last  struct {
		size    int
		txDelay sim.Time
		wire    *sim.DelayLane[wirePkt]
		tx      *sim.DelayLane[*Link]
	}

	// flaps counts SetDown(true) transitions; in-flight deliveries
	// compare it against its value at transmission time, so a packet
	// that was on the wire across a flap is dropped even if the link is
	// back up when it would have arrived.
	flaps uint64

	bus  *telemetry.Bus
	name string

	// TxPackets and TxBytes count transmitted traffic.
	TxPackets uint64
	TxBytes   uint64
	// FaultDrops counts packets lost to link failures (in flight during
	// a flap, or serialized while the link was down).
	FaultDrops uint64
}

var _ Node = (*Link)(nil)

// NewLink builds a link draining the given queue discipline. The queue
// may be nil, in which case an unbounded FIFO is used (useful for the
// uncongested side links). The bandwidth must be positive and finite
// and the delay non-negative; degenerate values would silently wedge
// the pipeline (an infinite transmission delay never delivers).
func NewLink(sched *sim.Scheduler, bandwidthBps float64, delay sim.Time, q QueueDiscipline, dst Node) (*Link, error) {
	if sched == nil {
		return nil, fmt.Errorf("netem: link needs a scheduler")
	}
	if err := validateLinkParams(bandwidthBps, delay); err != nil {
		return nil, err
	}
	b := make(linkBlock, 1)
	l := &b[0]
	l.init(sched, bandwidthBps, delay, q, 1<<30, dst)
	sched.AddDebtor(&b)
	return l, nil
}

// linkBlock is links laid out in one block. A block is the scheduler's
// debtor for the serialization completions its links owe: a topology
// registers its block once, not each link.
type linkBlock []Link

// PayDebts implements sim.Debtor.
func (b *linkBlock) PayDebts() {
	for i := range *b {
		if l := &(*b)[i]; l.owes {
			if l.sched.Passed(l.owed) {
				l.settle()
			} else {
				l.pushOwed()
			}
		}
	}
}

// init sets up a zero link where it will stay: the world's lanes and,
// when the discipline is its own fifo, the queue point back into it. A
// nil q is the link's own drop-tail of the given limit.
func (l *Link) init(sched *sim.Scheduler, bandwidthBps float64, delay sim.Time, q QueueDiscipline, limit int, dst Node) {
	if q == nil {
		l.fifo.limit = limit
		q = &l.fifo
	}
	l.sched, l.BandwidthBps, l.Delay, l.Dst = sched, bandwidthBps, delay, dst
	l.wires = sim.LanesOf(sched, deliver)
	l.txs = sim.LanesOf(sched, (*Link).transmitNext)
	l.queue.init(q, sched)
}

// clear zeroes the link for a rebuild, keeping its drop-tail's ring.
func (l *Link) clear() {
	buf := l.fifo.fifo.buf
	clear(buf)
	*l = Link{}
	l.fifo.fifo.buf = buf
}

func validateLinkParams(bandwidthBps float64, delay sim.Time) error {
	if bandwidthBps <= 0 || math.IsInf(bandwidthBps, 0) || math.IsNaN(bandwidthBps) {
		return fmt.Errorf("netem: link bandwidth must be positive and finite, got %v", bandwidthBps)
	}
	if delay < 0 {
		return fmt.Errorf("netem: negative link delay %v", delay)
	}
	return nil
}

// Queue returns the link's attached queue, for inspection in tests and
// traces.
func (l *Link) Queue() *Queue { return &l.queue }

// Instrument attaches the telemetry bus to the link and its queue
// under the given instance name: the link publishes a link-tx event
// per serialized packet (utilization), the queue publishes
// enqueue/drop/mark events (occupancy, loss accounting).
func (l *Link) Instrument(bus *telemetry.Bus, name string) {
	l.bus, l.name = bus, name
	l.queue.Instrument(bus, name)
}

// Receive implements Node: enqueue the packet and start transmitting if
// the link is idle.
func (l *Link) Receive(p *Packet) {
	if l.owes && l.sched.Passed(l.owed) {
		l.settle() // the packet before this one finished serializing first
	}
	if !l.queue.enqueue(p) {
		return // dropped by the discipline
	}
	if l.owes {
		l.pushOwed() // the packet waits for the completion
	} else if !l.busy && !l.down {
		l.transmitNext()
	}
}

// SetDown flips the link's carrier state. Taking the link down loses
// every packet currently propagating on the wire (they are dropped on
// arrival) and pauses serialization; the attached queue survives the
// outage, mirroring a router holding its buffer across an interface
// flap. Bringing the link back up resumes draining the queue.
func (l *Link) SetDown(down bool) {
	if down == l.down {
		return
	}
	if l.owes && l.sched.Passed(l.owed) {
		l.settle() // the completion came before the change of carrier
	}
	l.down = down
	kind := telemetry.KLinkUp
	if down {
		l.flaps++
		kind = telemetry.KLinkDown
	}
	if l.bus.Enabled() {
		l.bus.Publish(telemetry.Event{
			At:   l.sched.Now(),
			Comp: telemetry.CompLink,
			Kind: kind,
			Src:  l.name,
			Flow: telemetry.NoFlow,
			A:    float64(l.queue.Len()),
		})
	}
	if !down && !l.busy {
		l.transmitNext()
	}
}

// SetBandwidth renegotiates the link rate mid-flow (a modem retrain, a
// wireless rate adaptation). In-flight packets are unaffected; packets
// serialized from now on see the new rate.
func (l *Link) SetBandwidth(bps float64) error {
	if err := validateLinkParams(bps, l.Delay); err != nil {
		return err
	}
	l.BandwidthBps = bps
	l.last.size = -1 // its transmission delay was at the old rate
	l.emitParam()
	return nil
}

// SetDelay renegotiates the propagation delay mid-flow (a path change),
// stepping the flow's RTT. In-flight packets keep the delay they left
// with, so a delay drop can reorder across the change point — exactly
// the hazard the injection is meant to exercise.
func (l *Link) SetDelay(d sim.Time) error {
	if err := validateLinkParams(l.BandwidthBps, d); err != nil {
		return err
	}
	l.Delay = d
	l.emitParam()
	return nil
}

func (l *Link) emitParam() {
	if !l.bus.Enabled() {
		return
	}
	l.bus.Publish(telemetry.Event{
		At:   l.sched.Now(),
		Comp: telemetry.CompLink,
		Kind: telemetry.KLinkParam,
		Src:  l.name,
		Flow: telemetry.NoFlow,
		A:    l.BandwidthBps,
		B:    l.Delay.Seconds(),
	})
}

// TransmissionDelay returns the serialization time of a packet of the
// given size at the link rate.
func (l *Link) TransmissionDelay(sizeBytes int) sim.Time {
	seconds := float64(sizeBytes*8) / l.BandwidthBps
	return sim.Time(seconds * float64(time.Second))
}

func (l *Link) transmitNext() {
	if l.down {
		l.busy = false
		return
	}
	p := l.queue.dequeue()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	if p.Size != l.last.size {
		l.last.size, l.last.txDelay = p.Size, l.TransmissionDelay(p.Size)
	}
	txDelay := l.last.txDelay
	l.TxPackets++
	l.TxBytes += uint64(p.Size)
	l.sched.CountPacket()
	if l.bus.Enabled() {
		l.bus.Publish(telemetry.Event{
			At:   l.sched.Now(),
			Comp: telemetry.CompLink,
			Kind: telemetry.KLinkTx,
			Src:  l.name,
			Flow: int32(p.Flow),
			Seq:  p.Seq,
			A:    float64(p.Size),
			B:    float64(l.queue.Len()),
		})
	}
	// The packet leaves the queue now and arrives after tx+prop delay;
	// the link is free to start the next packet after tx delay alone. A
	// packet on the wire across a carrier loss never arrives: the flap
	// counter at transmission time is compared at delivery time. The
	// delivery must be pushed before the serialization completion so
	// simultaneous firings keep the historical order (delivery first).
	l.last.wire = l.wires.Push(l.last.wire, txDelay+l.Delay, wirePkt{l: l, p: p, flapsAtTx: l.flaps})
	// With nothing queued behind the packet the completion would only
	// find the queue empty: its key is reserved instead, and the event is
	// pushed only if a packet arrives before it is due.
	if l.queue.Len() == 0 {
		if l.owed, l.owes = l.sched.Reserve(txDelay); l.owes {
			return
		}
	}
	l.last.tx = l.txs.Push(l.last.tx, txDelay, l)
}

// pushOwed pushes the serialization completion the link owes under its
// reserved key, which the run has not passed.
func (l *Link) pushOwed() {
	l.owes = false
	l.last.tx = l.txs.PushKey(l.last.tx, l.last.txDelay, l.owed, l)
}

// settle does what the serialization completion the link owes did when
// it fired with the queue empty, now that the run has passed its key:
// the link goes idle, the queue (RED) is idle from the completion's
// instant unless the link was down, and the event counts as processed.
// The link's carrier state is still the one at the completion's instant,
// because SetDown settles first.
func (l *Link) settle() {
	l.owes, l.busy = false, false
	if !l.down {
		l.queue.markIdle(l.owed.At())
	}
	l.sched.Credit()
}

// wirePkt is one packet on the wire plus the state its arrival needs.
type wirePkt struct {
	l         *Link
	p         *Packet
	flapsAtTx uint64
}

// deliver fires when the packet finishes propagating.
func deliver(w wirePkt) {
	l := w.l
	if l.flaps != w.flapsAtTx {
		l.dropInFlight(w.p)
		return
	}
	l.Dst.Receive(w.p)
}

// dropInFlight accounts for a wire packet lost to a link flap.
func (l *Link) dropInFlight(p *Packet) {
	l.FaultDrops++
	if l.bus.Enabled() {
		l.bus.Publish(telemetry.Event{
			At:   l.sched.Now(),
			Comp: telemetry.CompLink,
			Kind: telemetry.KDrop,
			Src:  l.name,
			Flow: int32(p.Flow),
			Seq:  p.Seq,
			B:    1,
		})
	}
	p.Release()
}

// Queue wraps a QueueDiscipline with occupancy accounting shared by all
// disciplines.
type Queue struct {
	disc  QueueDiscipline
	sched *sim.Scheduler

	// idle and red cache the discipline's optional interfaces, hoisting
	// the per-packet type assertions out of the hot path.
	idle idleMarker
	red  *REDQueue

	bus  *telemetry.Bus
	name string

	// Drops counts packets rejected by the discipline.
	Drops uint64
	// Enqueued counts packets accepted.
	Enqueued uint64
}

// init wraps a discipline, caching its optional capabilities.
func (q *Queue) init(disc QueueDiscipline, sched *sim.Scheduler) {
	q.disc, q.sched = disc, sched
	q.idle, _ = disc.(idleMarker)
	q.red, _ = disc.(*REDQueue)
}

// Instrument attaches the telemetry bus under the given instance name.
func (q *Queue) Instrument(bus *telemetry.Bus, name string) {
	q.bus, q.name = bus, name
}

func (q *Queue) enqueue(p *Packet) bool {
	now := q.sched.Now()
	if !q.disc.Enqueue(p, now) {
		q.Drops++
		if q.bus.Enabled() {
			// RED early (probabilistic) drops are reported as "mark"
			// events, the congestion-signal reading of an RED drop;
			// everything else is a forced drop (buffer overflow or
			// average above the max threshold).
			ev := telemetry.Event{
				At:   now,
				Comp: telemetry.CompQueue,
				Kind: telemetry.KDrop,
				Src:  q.name,
				Flow: int32(p.Flow),
				Seq:  p.Seq,
				A:    float64(q.disc.Len()),
				B:    1,
			}
			if q.red != nil && q.red.lastDropEarly {
				ev.Kind = telemetry.KMark
				ev.B = q.red.AvgQueue()
			}
			q.bus.Publish(ev)
		}
		p.Release()
		return false
	}
	q.Enqueued++
	if q.bus.Enabled() {
		q.bus.Publish(telemetry.Event{
			At:   now,
			Comp: telemetry.CompQueue,
			Kind: telemetry.KEnqueue,
			Src:  q.name,
			Flow: int32(p.Flow),
			Seq:  p.Seq,
			A:    float64(q.disc.Len()),
		})
	}
	return true
}

// idleMarker is implemented by disciplines (RED) that need to know when
// the queue drains, so average-queue aging has a timestamp.
type idleMarker interface {
	MarkIdle(now sim.Time)
}

func (q *Queue) dequeue() *Packet {
	p := q.disc.Dequeue()
	q.markIdle(q.sched.Now())
	return p
}

// markIdle tells a discipline that tracks idle periods that it is empty
// as of at.
func (q *Queue) markIdle(at sim.Time) {
	if q.idle != nil && q.disc.Len() == 0 {
		q.idle.MarkIdle(at)
	}
}

// Len reports the current number of queued packets.
func (q *Queue) Len() int { return q.disc.Len() }

// SampleGauges implements telemetry.GaugeSource: the periodic Sampler
// records the queue's occupancy series.
func (q *Queue) SampleGauges(emit func(gauge string, v float64)) {
	emit("qlen", float64(q.disc.Len()))
}

// Discipline exposes the underlying queue discipline.
func (q *Queue) Discipline() QueueDiscipline { return q.disc }
