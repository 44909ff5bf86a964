// Package netem models the network elements the paper's ns-2 scenarios
// use: packets, point-to-point links with transmission and propagation
// delay, finite-buffer FIFO (drop-tail) queues, RED queues, random and
// deterministic loss injectors, and the dumbbell topology of Figure 4.
package netem

import "fmt"

// SACKBlock describes one contiguous block of out-of-order data held at
// the receiver, reported in ACKs when the SACK option is enabled.
// Edges are byte sequence numbers: [Start, End).
type SACKBlock struct {
	Start int64
	End   int64
}

// PacketKind distinguishes data segments from acknowledgments.
type PacketKind int

// Packet kinds.
const (
	Data PacketKind = iota + 1
	Ack
)

// String implements fmt.Stringer for diagnostics.
func (k PacketKind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	default:
		return fmt.Sprintf("PacketKind(%d)", int(k))
	}
}

// Packet is a simulated TCP segment or acknowledgment. Sequence fields
// are byte sequence numbers, as in a real TCP, though the simulations
// always use MSS-sized segments.
type Packet struct {
	// Flow identifies the connection the packet belongs to.
	Flow int
	// Kind says whether this is a data segment or an ACK.
	Kind PacketKind
	// Seq is the first byte carried (data) or is unused (ACK).
	Seq int64
	// Len is the number of payload bytes carried (data only).
	Len int
	// AckNo is the cumulative acknowledgment (ACK only): the next byte
	// the receiver expects.
	AckNo int64
	// SACK carries up to three selective-acknowledgment blocks.
	SACK []SACKBlock
	// Size is the wire size in bytes, used for transmission delay and
	// queue accounting.
	Size int
	// Retransmit marks retransmitted data segments, for tracing.
	Retransmit bool

	// pool, when non-nil, is where Release returns the packet.
	pool *PacketPool
}

// Release returns a pooled packet to its pool once its ownership chain
// ends (consumed by an endpoint, dropped by a queue or injector).
// Releasing a packet that did not come from a pool, or releasing twice,
// is a safe no-op — the first Release clears the pool backpointer.
// After Release the caller must not touch the packet or its SACK slice.
func (p *Packet) Release() {
	pp := p.pool
	if pp == nil {
		return
	}
	p.pool = nil
	pp.free = append(pp.free, p)
}

// Clone returns an independent copy of p. The SACK blocks are
// deep-copied and the clone is detached from any pool, so the original
// can be released without invalidating the copy.
func (p *Packet) Clone() *Packet {
	c := *p
	c.pool = nil
	if len(p.SACK) > 0 {
		c.SACK = append([]SACKBlock(nil), p.SACK...)
	}
	return &c
}

// PacketPool recycles Packet values through a free list so steady-state
// traffic allocates no packets. All Get/Release traffic happens on the
// single simulation goroutine, so the pool needs no locking; each
// topology owns one. The zero value and a nil pool are both usable (a
// nil pool's Get falls back to plain allocation), which keeps hand-built
// test fixtures working unchanged.
type PacketPool struct {
	free []*Packet

	// Gets counts Get calls and Hits the subset served from the free
	// list; Hits/Gets is the pool hit rate the benchmarks report.
	Gets uint64
	Hits uint64
}

// Get returns a zeroed packet owned by the pool. The packet's SACK
// slice keeps its recycled backing array (length 0), so appending
// blocks to it steady-state allocates nothing.
func (pp *PacketPool) Get() *Packet {
	if pp == nil {
		return &Packet{}
	}
	pp.Gets++
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		pp.Hits++
		sack := p.SACK[:0]
		*p = Packet{SACK: sack, pool: pp}
		return p
	}
	return &Packet{pool: pp}
}

// EndSeq returns the sequence number one past the last byte carried.
func (p *Packet) EndSeq() int64 { return p.Seq + int64(p.Len) }

// String implements fmt.Stringer for trace output.
func (p *Packet) String() string {
	if p.Kind == Ack {
		return fmt.Sprintf("ack{flow=%d ackno=%d sack=%v}", p.Flow, p.AckNo, p.SACK)
	}
	return fmt.Sprintf("data{flow=%d seq=%d len=%d rtx=%t}", p.Flow, p.Seq, p.Len, p.Retransmit)
}

// Node consumes packets. Links deliver to Nodes; queues, routers, TCP
// endpoints, and loss injectors all implement Node.
type Node interface {
	// Receive hands the node a packet. Ownership transfers to the node.
	Receive(p *Packet)
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc func(p *Packet)

// Receive implements Node.
func (f NodeFunc) Receive(p *Packet) { f(p) }
