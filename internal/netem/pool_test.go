package netem

import (
	"testing"
	"time"

	"rrtcp/internal/sim"
)

func TestPacketPoolRecycles(t *testing.T) {
	var pp PacketPool
	p := pp.Get()
	p.Seq = 42
	p.SACK = append(p.SACK, SACKBlock{Start: 1, End: 2})
	p.Release()
	q := pp.Get()
	if q != p {
		t.Fatal("pool did not recycle the released packet")
	}
	if q.Seq != 0 || len(q.SACK) != 0 {
		t.Fatalf("recycled packet not reset: %+v", q)
	}
	if cap(q.SACK) == 0 {
		t.Fatal("recycled packet lost its SACK backing array")
	}
	if pp.Gets != 2 || pp.Hits != 1 {
		t.Fatalf("counters Gets=%d Hits=%d, want 2/1", pp.Gets, pp.Hits)
	}
}

func TestPacketPoolNilSafe(t *testing.T) {
	var pp *PacketPool
	p := pp.Get()
	if p == nil {
		t.Fatal("nil pool Get returned nil")
	}
	p.Release() // non-pooled packet: must be a no-op
	var orphan Packet
	orphan.Release()
}

func TestPacketPoolDoubleReleaseIsNoOp(t *testing.T) {
	var pp PacketPool
	p := pp.Get()
	p.Release()
	p.Release()
	if pp.free != p || p.next != nil {
		t.Fatal("double release linked the packet into the free list twice")
	}
}

// TestPacketPoolSteadyStateZeroAlloc asserts the pooling contract of
// the zero-alloc campaign: a warm Get/Release cycle allocates nothing.
func TestPacketPoolSteadyStateZeroAlloc(t *testing.T) {
	var pp PacketPool
	pp.Get().Release() // warm: one packet in the free list
	avg := testing.AllocsPerRun(100, func() {
		p := pp.Get()
		p.Seq = 7
		p.Release()
	})
	if avg != 0 {
		t.Fatalf("warm Get/Release allocates %.2f allocs/run, want 0", avg)
	}
}

// TestLinkSteadyStateZeroAlloc drives pooled packets through a link
// (serialization and wire lanes, queue ring) and asserts the whole
// transmission path allocates nothing once warm.
func TestLinkSteadyStateZeroAlloc(t *testing.T) {
	s := sim.NewScheduler(1)
	var pp PacketPool
	sink := NodeFunc(func(p *Packet) { p.Release() })
	l := Must(NewLink(s, 8e6, time.Millisecond, Must(NewDropTail(64)), sink))

	send := func(n int) {
		for i := 0; i < n; i++ {
			p := pp.Get()
			p.Kind = Data
			p.Len = 1000
			p.Size = 1000
			l.Receive(p)
			s.Run(s.Now() + 5*time.Millisecond)
		}
	}
	send(32) // warm: pool, lane rings, heap, queue ring

	avg := testing.AllocsPerRun(20, func() { send(10) })
	if avg != 0 {
		t.Fatalf("warm link transmission allocates %.2f allocs/run, want 0", avg)
	}
}

// TestPacketPoolCarvesMissesFromSlabs: packets the free list cannot
// supply come a block at a time, each its own packet, and a released one
// is handed out again before another is carved.
func TestPacketPoolCarvesMissesFromSlabs(t *testing.T) {
	const n = 1000
	var held []*Packet
	blocks := testing.AllocsPerRun(3, func() {
		pp := new(PacketPool)
		held = held[:0]
		for i := 0; i < n; i++ {
			held = append(held, pp.Get())
		}
	})
	if blocks > n/16 {
		t.Fatalf("%d packets took %.0f allocations", n, blocks)
	}
	distinct := make(map[*Packet]bool, n)
	for _, p := range held {
		distinct[p] = true
	}
	pp := held[0].pool
	if len(distinct) != n || pp.Gets != n || pp.Hits != 0 {
		t.Fatalf("%d Gets (%d hits) handed out %d distinct packets, want %d/0/%d", pp.Gets, pp.Hits, len(distinct), n, n)
	}
	held[3].Release()
	held[7].Release()
	if a, b := pp.Get(), pp.Get(); a != held[7] || b != held[3] {
		t.Fatal("released packets were not the next ones handed out")
	}
}

// TestSACKRoomCarvesMissesFromSlabs: the room an ACK gets for its SACK
// blocks comes a slab at a time — minSlab rooms in a pool that has
// carved few packets, maxSACKSlab in one that has carved many — each
// room its own three blocks, and it stays with its packet through a
// release and a reset.
func TestSACKRoomCarvesMissesFromSlabs(t *testing.T) {
	const n = 1000
	var rooms [][]SACKBlock
	slabs := testing.AllocsPerRun(3, func() {
		pp := new(PacketPool)
		rooms = rooms[:0]
		for i := 0; i < n; i++ {
			rooms = append(rooms, pp.SACKRoom())
		}
	})
	if slabs > n/minSlab {
		t.Fatalf("%d SACK rooms took %.0f allocations", n, slabs)
	}
	big := new(PacketPool)
	for i := 0; i < 16*maxSACKSlab; i++ {
		big.Get()
	}
	if big.SACKRoom(); len(big.sacks) != sackBlocks*(maxSACKSlab-1) {
		t.Fatalf("after %d packets a SACK slab holds %d rooms, want %d", big.Gets, len(big.sacks)/sackBlocks+1, maxSACKSlab)
	}
	for i, room := range rooms {
		if len(room) != 0 || cap(room) != sackBlocks {
			t.Fatalf("room %d: len %d cap %d, want 0 and %d", i, len(room), cap(room), sackBlocks)
		}
		rooms[i] = append(room, SACKBlock{Start: int64(i)}, SACKBlock{Start: int64(i)}, SACKBlock{Start: int64(i)})
	}
	for i, room := range rooms {
		for _, b := range room {
			if b.Start != int64(i) {
				t.Fatalf("room %d shares its blocks with another room", i)
			}
		}
	}
	if room := (*PacketPool)(nil).SACKRoom(); len(room) != 0 || cap(room) != sackBlocks {
		t.Fatalf("a nil pool's room: len %d cap %d", len(room), cap(room))
	}

	var pp PacketPool
	p := pp.Get()
	p.SACK = append(pp.SACKRoom(), SACKBlock{Start: 1, End: 2})
	block := &p.SACK[:1][0]
	p.Release()
	if q := pp.Get(); q != p || len(q.SACK) != 0 || &q.SACK[:1][0] != block {
		t.Fatal("a released packet lost its SACK room")
	}
	pp.reset()
	if q := pp.Get(); q != p || &q.SACK[:1][0] != block {
		t.Fatal("a reset pool's packet lost its SACK room")
	}
}
