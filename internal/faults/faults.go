// Package faults injects adversarial network conditions into a netem
// topology: link flaps that lose everything in flight, mid-flow
// bandwidth/delay renegotiation, packet reordering, duplication,
// corruption (modeled as loss, since a checksum failure discards the
// segment), and ACK compression on the reverse path.
//
// Everything is deterministic: injectors draw from an explicitly
// provided *rand.Rand (by convention a stream derived from the
// scheduler seed via sim.Scheduler.DeriveRand), and all timing flows
// through the simulation scheduler. A PlanSpec is a fully serializable
// description of a fault schedule, so a failing run can be replayed
// exactly from its scenario config and seed — the basis of the repro
// bundles internal/experiments emits for invariant violations.
package faults

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// Duration wraps time.Duration with JSON encoding as a string ("50ms"),
// so fault plans round-trip through repro bundles legibly; scenario
// files use it too (scenario.Duration is this type).
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler; accepts "50ms" strings or
// raw nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("duration must be a string like \"50ms\" or nanoseconds")
	}
	*d = Duration(ns)
	return nil
}

// D converts to the scheduler's time type.
func (d Duration) D() sim.Time { return sim.Time(d) }

// injector is the shared state of the in-path fault modules.
type injector struct {
	sched *sim.Scheduler
	rng   *rand.Rand
	dst   netem.Node
	bus   *telemetry.Bus
	name  string
}

// SetDst satisfies netem.DstSetter so injectors chain like loss modules.
func (in *injector) SetDst(n netem.Node) { in.dst = n }

// Instrument attaches the telemetry bus under the given instance name.
func (in *injector) Instrument(bus *telemetry.Bus, name string) {
	in.bus, in.name = bus, name
}

func (in *injector) emit(kind telemetry.Kind, p *netem.Packet, a, b float64) {
	if !in.bus.Enabled() {
		return
	}
	ev := telemetry.Event{
		At:   in.sched.Now(),
		Comp: telemetry.CompFault,
		Kind: kind,
		Src:  in.name,
		Flow: telemetry.NoFlow,
		A:    a,
		B:    b,
	}
	if p != nil {
		ev.Flow = int32(p.Flow)
		ev.Seq = p.Seq
	}
	in.bus.Publish(ev)
}

// Reorderer delays a random subset of packets by an extra interval so
// they arrive behind segments sent after them — the dup-ACK noise that
// distinguishes genuine loss recovery from spurious fast retransmit.
type Reorderer struct {
	injector
	rate     float64
	min, max sim.Time

	// heldFree recycles held-packet entries (and their timer slots)
	// across reorder events.
	heldFree *heldPacket

	// Reordered counts packets held back.
	Reordered uint64
}

// heldPacket is one delayed delivery in flight: a pooled pairing of a
// packet with a reusable timer, so repeated reordering does not grow
// the scheduler's timer arena.
type heldPacket struct {
	r     *Reorderer
	p     *netem.Packet
	timer *sim.Timer
	next  *heldPacket
}

func (h *heldPacket) deliver() {
	r, p := h.r, h.p
	h.p = nil
	h.next = r.heldFree
	r.heldFree = h
	r.dst.Receive(p)
}

var _ netem.Node = (*Reorderer)(nil)

// NewReorderer holds back each packet with probability rate, delaying
// it by an extra duration uniform in [min, max] before delivery to dst.
func NewReorderer(sched *sim.Scheduler, rng *rand.Rand, rate float64, min, max sim.Time, dst netem.Node) (*Reorderer, error) {
	if err := validateRate("reorder", rate); err != nil {
		return nil, err
	}
	if rng == nil || sched == nil {
		return nil, fmt.Errorf("faults: reorderer needs a scheduler and a random source")
	}
	if min < 0 || max < min {
		return nil, fmt.Errorf("faults: reorder delay range [%v, %v] invalid", min, max)
	}
	return &Reorderer{injector: injector{sched: sched, rng: rng, dst: dst}, rate: rate, min: min, max: max}, nil
}

// Receive implements netem.Node.
func (r *Reorderer) Receive(p *netem.Packet) {
	if r.rng.Float64() >= r.rate {
		r.dst.Receive(p)
		return
	}
	extra := r.min
	if r.max > r.min {
		extra += sim.Time(r.rng.Int63n(int64(r.max - r.min)))
	}
	r.Reordered++
	r.emit(telemetry.KFaultReorder, p, extra.Seconds(), 0)
	h := r.heldFree
	if h != nil {
		r.heldFree = h.next
	} else {
		h = &heldPacket{r: r}
		h.timer = r.sched.NewTimer(h.deliver)
	}
	h.p = p
	h.timer.Reset(extra)
}

// Duplicator re-delivers a random subset of packets twice, as a
// misbehaving middlebox or a link-layer retransmission would. The copy
// is a distinct packet with identical contents.
type Duplicator struct {
	injector
	rate float64

	// Duplicated counts injected copies.
	Duplicated uint64
}

var _ netem.Node = (*Duplicator)(nil)

// NewDuplicator duplicates each packet with probability rate.
func NewDuplicator(sched *sim.Scheduler, rng *rand.Rand, rate float64, dst netem.Node) (*Duplicator, error) {
	if err := validateRate("duplicate", rate); err != nil {
		return nil, err
	}
	if rng == nil || sched == nil {
		return nil, fmt.Errorf("faults: duplicator needs a scheduler and a random source")
	}
	return &Duplicator{injector: injector{sched: sched, rng: rng, dst: dst}, rate: rate}, nil
}

// Receive implements netem.Node.
func (d *Duplicator) Receive(p *netem.Packet) {
	if d.rng.Float64() < d.rate {
		// Clone before forwarding: the downstream chain may consume and
		// recycle the original (and its SACK backing) immediately.
		c := p.Clone()
		d.Duplicated++
		d.emit(telemetry.KFaultDup, p, 0, 0)
		d.dst.Receive(p)
		d.dst.Receive(c)
		return
	}
	d.dst.Receive(p)
}

// Corrupter drops a random subset of packets, modeling bit errors: a
// TCP segment failing its checksum is discarded by the receiver, so
// corruption and loss are indistinguishable to the sender.
type Corrupter struct {
	injector
	rate float64

	// Corrupted counts discarded packets.
	Corrupted uint64
}

var _ netem.Node = (*Corrupter)(nil)

// NewCorrupter corrupts (drops) each packet with probability rate.
func NewCorrupter(sched *sim.Scheduler, rng *rand.Rand, rate float64, dst netem.Node) (*Corrupter, error) {
	if err := validateRate("corrupt", rate); err != nil {
		return nil, err
	}
	if rng == nil || sched == nil {
		return nil, fmt.Errorf("faults: corrupter needs a scheduler and a random source")
	}
	return &Corrupter{injector: injector{sched: sched, rng: rng, dst: dst}, rate: rate}, nil
}

// Receive implements netem.Node.
func (c *Corrupter) Receive(p *netem.Packet) {
	if c.rng.Float64() < c.rate {
		c.Corrupted++
		c.emit(telemetry.KDrop, p, 0, 1)
		p.Release()
		return
	}
	c.dst.Receive(p)
}

// AckCompressor models reverse-path queueing that bunches ACKs: held
// acknowledgments are released back-to-back, turning a smooth ACK clock
// into bursts that slam the sender's window open all at once. Data
// packets (two-way traffic) pass through untouched.
type AckCompressor struct {
	injector
	hold sim.Time
	max  int

	// held collects the current batch; spare is the previous batch's
	// storage, swapped back in at the next release so steady-state
	// batching allocates nothing.
	held, spare []*netem.Packet
	holdTimer   *sim.Timer

	// Batches counts release bursts.
	Batches uint64
}

var _ netem.Node = (*AckCompressor)(nil)

// NewAckCompressor holds ACKs for up to hold, or until max are queued,
// then releases the batch back-to-back.
func NewAckCompressor(sched *sim.Scheduler, hold sim.Time, max int, dst netem.Node) (*AckCompressor, error) {
	if sched == nil {
		return nil, fmt.Errorf("faults: ACK compressor needs a scheduler")
	}
	if hold <= 0 {
		return nil, fmt.Errorf("faults: ACK hold must be positive, got %v", hold)
	}
	if max < 2 {
		return nil, fmt.Errorf("faults: ACK batch size must be >= 2, got %d", max)
	}
	buf := make([]*netem.Packet, 2*max) // a batch never outgrows max
	a := &AckCompressor{injector: injector{sched: sched, dst: dst}, hold: hold, max: max,
		held: buf[:0:max], spare: buf[max:max]}
	a.holdTimer = sched.NewTimer(a.release)
	return a, nil
}

// Receive implements netem.Node.
func (a *AckCompressor) Receive(p *netem.Packet) {
	if p.Kind != netem.Ack {
		a.dst.Receive(p)
		return
	}
	a.held = append(a.held, p)
	if len(a.held) >= a.max {
		a.release()
		return
	}
	if len(a.held) == 1 {
		a.holdTimer.Reset(a.hold)
	}
}

func (a *AckCompressor) release() {
	a.holdTimer.Stop()
	if len(a.held) == 0 {
		return
	}
	// Swap buffers before delivering: an ACK arriving re-entrantly while
	// the batch drains starts the next batch in the other buffer.
	batch := a.held
	a.held, a.spare = a.spare[:0], nil
	a.Batches++
	a.emit(telemetry.KAckCompress, nil, float64(len(batch)), 0)
	for i, p := range batch {
		batch[i] = nil // downstream owns p now; do not pin it past its release
		a.dst.Receive(p)
	}
	a.spare = batch[:0]
}

func validateRate(what string, rate float64) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("faults: %s rate must be in [0, 1], got %v", what, rate)
	}
	return nil
}
