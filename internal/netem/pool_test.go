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
