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

	// pool, when non-nil, is where Release returns the packet; next
	// links it into that pool's free list afterwards.
	pool *PacketPool
	next *Packet
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
	p.next, pp.free = pp.free, p
}

// Clone returns an independent copy of p, drawn from the pool p came
// from (plainly allocated when p has none). The SACK blocks are
// deep-copied, so the original can be released without invalidating the
// copy.
func (p *Packet) Clone() *Packet {
	c := p.pool.Get()
	sack := append(c.SACK, p.SACK...)
	*c = *p
	c.SACK = sack
	return c
}

// PacketPool recycles Packet values through a free list so steady-state
// traffic allocates no packets, and carves the packets it has to make
// from slabs, so a world allocates them a block at a time. All
// Get/Release traffic happens on the single simulation goroutine, so the
// pool needs no locking; each topology owns one. The zero value is
// usable. A nil pool's Get falls back to plain allocation, for hand-built
// test fixtures; nothing scenario.Build assembles has one.
type PacketPool struct {
	free *Packet // released packets, linked through Packet.next
	// blocks are the slabs carved so far, and slab the uncarved rest of
	// blocks[next-1]. A new block is a quarter of all the packets carved
	// before it, within the slab bounds: a one-flow world that keeps a
	// dozen packets in flight does not pay for a big block, a world of
	// thousands of flows makes few. A pool reset for a rebuilt world
	// carves the blocks it has again before it makes any.
	blocks [][]Packet
	next   int
	slab   []Packet
	// sacks is the uncarved rest of the last slab of SACK arrays. An
	// array stays with the packet it was carved for, reset included, so
	// a slab is never carved twice.
	sacks []SACKBlock

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
	if p := pp.free; p != nil {
		pp.free = p.next
		pp.Hits++
		sack := p.SACK[:0]
		*p = Packet{SACK: sack, pool: pp}
		return p
	}
	if len(pp.slab) == 0 {
		if pp.next == len(pp.blocks) {
			n := min(max(int(pp.Gets-pp.Hits-1)/4, minSlab), maxSlab)
			pp.blocks = append(pp.blocks, make([]Packet, n))
		}
		pp.slab = pp.blocks[pp.next]
		pp.next++
	}
	p := &pp.slab[0]
	pp.slab = pp.slab[1:]
	p.pool = pp
	return p
}

// SACKRoom returns an empty slice with room for the three blocks an ACK
// carries, for a packet of the pool whose SACK slice has none yet. It is
// carved from a slab of such arrays, a sixteenth as many as the packets
// carved so far within minSlab and maxSACKSlab; a nil pool allocates it.
func (pp *PacketPool) SACKRoom() []SACKBlock {
	if pp == nil {
		return make([]SACKBlock, 0, sackBlocks)
	}
	if len(pp.sacks) == 0 {
		n := min(max(int(pp.Gets-pp.Hits)/16, minSlab), maxSACKSlab)
		pp.sacks = make([]SACKBlock, sackBlocks*n)
	}
	room := pp.sacks[:0:sackBlocks]
	pp.sacks = pp.sacks[sackBlocks:]
	return room
}

// sackBlocks is how many SACK blocks an ACK carries at most (RFC 2018).
// A slab's uncarved tail is what SACK slabs cost over one array apiece,
// so a slab holds at most maxSACKSlab arrays, and few in a small world.
const sackBlocks, maxSACKSlab = 3, 16

// reset empties the pool for a rebuilt world: every packet it carved is
// zeroed as Get zeroes a released one, SACK array kept, and carving
// starts again from the first block. A packet of the previous world is
// no longer the pool's; releasing one does nothing.
func (pp *PacketPool) reset() {
	for _, blk := range pp.blocks[:pp.next] {
		for i := range blk {
			blk[i] = Packet{SACK: blk[i].SACK[:0]}
		}
	}
	*pp = PacketPool{blocks: pp.blocks, sacks: pp.sacks}
}

// Slab bounds, in packets.
const minSlab, maxSlab = 4, 64

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
