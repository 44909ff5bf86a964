package tcp

import (
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/trace"
)

// Receiver is the data sink of a connection. Matching the paper's
// setup, it acknowledges every data packet it receives, and it sends an
// immediate duplicate ACK for each out-of-sequence arrival ("the
// delayed acknowledgment mechanism is off"). It needs no modification
// for RR — that is the point of the paper — but can optionally attach
// SACK blocks for the SACK-TCP baseline.
type Receiver struct {
	sched *sim.Scheduler
	out   netem.Node
	flow  int

	// SACKEnabled makes ACKs carry up to three SACK blocks.
	SACKEnabled bool
	// DelayedAck enables RFC 1122-style delayed acknowledgments for
	// in-order data: one ACK per two segments, or after ackDelay. The
	// paper runs with this OFF ("the receiver sends an ACK for every
	// data packet"); it is provided for the delayed-ACK extension
	// experiments. Out-of-order arrivals and hole fills are always
	// acknowledged immediately, per RFC 5681.
	DelayedAck bool

	rcvNxt  int64
	blocks  rangeSet    // out-of-order data
	recent  [6]seqRange // recency order for SACK block selection
	nrecent int         // entries of recent in use

	unacked  int        // in-order segments received since the last ACK
	ackTimer *sim.Timer // made on the first withheld ACK; nil until then

	// Pool, when non-nil, supplies outgoing ACKs and receives every
	// consumed data packet back.
	Pool *netem.PacketPool

	tr *trace.FlowTrace

	// Telemetry, when non-nil, receives the receiver's delivery events.
	Telemetry *telemetry.Bus

	// Delivered counts in-order bytes handed to the application.
	Delivered int64
	// Segments counts data packets processed.
	Segments uint64
	// DupSegments counts arrivals fully below rcvNxt.
	DupSegments uint64
}

var _ netem.Node = (*Receiver)(nil)

const (
	// ackSize is the wire size of generated ACKs (paper: 40 bytes).
	ackSize = 40
	// ackDelay bounds how long a delayed acknowledgment may be withheld.
	ackDelay = 200 * time.Millisecond
)

// NewReceiver builds a receiver whose ACKs go to out.
func NewReceiver(sched *sim.Scheduler, flow int, out netem.Node, tr *trace.FlowTrace) *Receiver {
	return &Receiver{
		sched: sched,
		out:   out,
		flow:  flow,
		tr:    tr,
	}
}

// SetOutput redirects generated ACKs to a different node, letting
// experiments interpose loss modules on the reverse path (§2.3).
func (r *Receiver) SetOutput(n netem.Node) { r.out = n }

// RcvNxt reports the next expected in-order byte.
func (r *Receiver) RcvNxt() int64 { return r.rcvNxt }

// OutOfOrderBlocks returns a copy of the buffered out-of-order ranges.
func (r *Receiver) OutOfOrderBlocks() []netem.SACKBlock {
	out := make([]netem.SACKBlock, 0, len(r.blocks))
	for _, b := range r.blocks {
		out = append(out, netem.SACKBlock{Start: b.Start, End: b.End})
	}
	return out
}

// Receive implements netem.Node for data packets.
func (r *Receiver) Receive(p *netem.Packet) {
	defer p.Release() // the receiver buffers ranges, never packets
	if p.Kind != netem.Data || p.Flow != r.flow {
		return
	}
	r.Segments++
	switch {
	case p.EndSeq() <= r.rcvNxt:
		// Entirely old data (e.g. a spurious retransmission): re-ACK
		// immediately.
		r.DupSegments++
		r.flushAck()
	case p.Seq <= r.rcvNxt:
		// In-order (possibly partially old): deliver and drain any
		// buffered blocks that became contiguous.
		hadHole := len(r.blocks) > 0
		r.advance(p.EndSeq())
		if !r.DelayedAck || hadHole {
			// Hole fills are acknowledged immediately (RFC 5681).
			r.flushAck()
			return
		}
		r.unacked++
		if r.unacked >= 2 {
			r.flushAck()
			return
		}
		if r.ackTimer == nil {
			r.ackTimer = r.sched.NewTimer(r.flushAck)
		}
		if !r.ackTimer.Armed() {
			r.ackTimer.Reset(ackDelay)
		}
	default:
		// Out of order: buffer and emit an immediate duplicate ACK.
		r.insert(seqRange{Start: p.Seq, End: p.EndSeq()})
		r.flushAck()
	}
}

// flushAck emits a cumulative ACK now and clears delayed-ACK state.
func (r *Receiver) flushAck() {
	r.unacked = 0
	if r.ackTimer != nil {
		r.ackTimer.Stop()
	}
	r.sendAck()
}

func (r *Receiver) advance(end int64) {
	if end > r.rcvNxt {
		r.rcvNxt = end
	}
	// Drain contiguous buffered blocks, then close the gap in place so
	// the backing array keeps its capacity for the next hole.
	drained := 0
	for drained < len(r.blocks) && r.blocks[drained].Start <= r.rcvNxt {
		if r.blocks[drained].End > r.rcvNxt {
			r.rcvNxt = r.blocks[drained].End
		}
		r.dropRecent(r.blocks[drained])
		drained++
	}
	if drained > 0 {
		r.blocks = r.blocks[:copy(r.blocks, r.blocks[drained:])]
	}
	r.Delivered = r.rcvNxt
	if !r.tr.Recording() && !r.Telemetry.Enabled() {
		return
	}
	ev := telemetry.Event{
		At:   r.sched.Now(),
		Comp: telemetry.CompRecv,
		Kind: telemetry.KDeliver,
		Flow: int32(r.flow),
		Seq:  r.rcvNxt,
	}
	r.tr.OnEvent(ev)
	r.Telemetry.Publish(ev)
}

// insert buffers the out-of-order range nb. The block it becomes goes
// to the head of the recency list in place of the blocks it absorbed —
// an entry is always one current block, so those are the entries inside
// the merged block; the oldest falls off the end when the list is full.
func (r *Receiver) insert(nb seqRange) {
	nb = r.blocks.merge(nb)
	r.dropRecent(nb)
	r.nrecent = min(r.nrecent+1, len(r.recent))
	copy(r.recent[1:r.nrecent], r.recent[:])
	r.recent[0] = nb
}

// dropRecent forgets the recency entries of the blocks inside b.
func (r *Receiver) dropRecent(b seqRange) {
	kept := 0
	for _, rb := range r.recent[:r.nrecent] {
		if rb.Start < b.Start || rb.End > b.End {
			r.recent[kept] = rb
			kept++
		}
	}
	r.nrecent = kept
}

func (r *Receiver) sendAck() {
	ack := r.Pool.Get()
	ack.Flow = r.flow
	ack.Kind = netem.Ack
	ack.AckNo = r.rcvNxt
	ack.Size = ackSize
	if r.SACKEnabled {
		ack.SACK = r.appendSACKBlocks(ack.SACK[:0])
	}
	r.out.Receive(ack)
}

// appendSACKBlocks appends up to three blocks to dst, most recently
// changed first, per RFC 2018's reporting rules. Appending into the
// caller's (recycled) slice keeps steady-state ACK generation
// allocation-free.
func (r *Receiver) appendSACKBlocks(dst []netem.SACKBlock) []netem.SACKBlock {
	var seen [3]seqRange // at most three reported blocks to dedup against
	out := dst
	appendBlock := func(q seqRange) {
		if len(out)-len(dst) >= 3 {
			return
		}
		for i := 0; i < len(out)-len(dst); i++ {
			if seen[i] == q {
				return
			}
		}
		seen[len(out)-len(dst)] = q
		if cap(out) == 0 {
			// A fresh packet: room for all three blocks in one step.
			out = r.Pool.SACKRoom()
		}
		out = append(out, netem.SACKBlock{Start: q.Start, End: q.End})
	}
	for _, q := range r.recent[:r.nrecent] {
		// Only report blocks that still exist (were not delivered).
		for _, b := range r.blocks {
			if q.Start >= b.Start && q.End <= b.End {
				appendBlock(b)
				break
			}
		}
	}
	for _, b := range r.blocks {
		appendBlock(b)
	}
	return out
}
