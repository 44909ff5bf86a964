package netem

import (
	"testing"
	"time"

	"rrtcp/internal/sim"
)

// collector records delivered packets with their arrival times.
type collector struct {
	sched *sim.Scheduler
	pkts  []*Packet
	at    []sim.Time
}

func (c *collector) Receive(p *Packet) {
	c.pkts = append(c.pkts, p)
	if c.sched != nil {
		c.at = append(c.at, c.sched.Now())
	}
}

func TestLinkTransmissionPlusPropagation(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	// 0.8 Mbps, 50 ms: a 1000-byte packet serializes in 10 ms.
	l := Must(NewLink(s, 0.8e6, 50*time.Millisecond, Must(NewDropTail(10)), sink))
	l.Receive(pkt(1))
	s.RunAll()
	want := 60 * time.Millisecond
	if len(sink.at) != 1 || sink.at[0] != want {
		t.Fatalf("arrival %v, want %v", sink.at, want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	l := Must(NewLink(s, 0.8e6, 50*time.Millisecond, Must(NewDropTail(10)), sink))
	l.Receive(pkt(1))
	l.Receive(pkt(2))
	l.Receive(pkt(3))
	s.RunAll()
	if len(sink.at) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(sink.at))
	}
	// Successive packets are spaced by the 10 ms serialization time.
	for i := 1; i < 3; i++ {
		gap := sink.at[i] - sink.at[i-1]
		if gap != 10*time.Millisecond {
			t.Fatalf("gap %d = %v, want 10ms", i, gap)
		}
	}
}

func TestLinkDropsWhenQueueFull(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	l := Must(NewLink(s, 0.8e6, time.Millisecond, Must(NewDropTail(2)), sink))
	// One packet goes straight to the transmitter; two queue; the rest drop.
	for i := uint64(0); i < 6; i++ {
		l.Receive(pkt(i))
	}
	s.RunAll()
	if len(sink.pkts) != 3 {
		t.Fatalf("delivered %d packets, want 3 (1 in flight + 2 queued)", len(sink.pkts))
	}
	if l.Queue().Drops != 3 {
		t.Fatalf("drops = %d, want 3", l.Queue().Drops)
	}
}

func TestLinkIdleThenBusyAgain(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	l := Must(NewLink(s, 8e6, time.Millisecond, Must(NewDropTail(10)), sink))
	l.Receive(pkt(1))
	s.RunAll()
	l.Receive(pkt(2))
	s.RunAll()
	if len(sink.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(sink.pkts))
	}
	if l.TxPackets != 2 {
		t.Fatalf("tx packets = %d, want 2", l.TxPackets)
	}
}

func TestLinkCountsBytes(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	l := Must(NewLink(s, 8e6, time.Millisecond, nil, sink))
	l.Receive(&Packet{Kind: Ack, Size: 40})
	l.Receive(&Packet{Kind: Data, Size: 1000, Len: 1000})
	s.RunAll()
	if l.TxBytes != 1040 {
		t.Fatalf("tx bytes = %d, want 1040", l.TxBytes)
	}
}

func TestLinkSmallPacketsFaster(t *testing.T) {
	s := sim.NewScheduler(1)
	l := Must(NewLink(s, 0.8e6, 0, nil, &collector{sched: s}))
	ack := l.TransmissionDelay(40)
	data := l.TransmissionDelay(1000)
	if ack >= data {
		t.Fatalf("ack tx delay %v not below data %v", ack, data)
	}
	if data != 10*time.Millisecond {
		t.Fatalf("data tx delay %v, want 10ms", data)
	}
}

func TestNodeFuncAdapts(t *testing.T) {
	var got *Packet
	n := NodeFunc(func(p *Packet) { got = p })
	want := pkt(7)
	n.Receive(want)
	if got != want {
		t.Fatal("NodeFunc did not forward the packet")
	}
}

// The tests below pin the contract of the lanes a link pushes on (in-flight
// packets and serialization completion): they behave exactly as one
// cancellable timer per packet did.

// TestLinkSetDelayMidFlightKeepsTimerOrder lowers the propagation delay
// while packets are on the wire, so later packets are due before earlier
// ones: each still arrives at its own transmission + propagation time,
// and a tie goes to the packet that left first.
func TestLinkSetDelayMidFlightKeepsTimerOrder(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	// 8 Mbps: a 1000-byte packet serializes in 1 ms.
	l := Must(NewLink(s, 8e6, 50*time.Millisecond, Must(NewDropTail(10)), sink))
	for id := uint64(1); id <= 3; id++ { // leave at 1, 2, 3 ms; due at 51, 52, 53 ms
		l.Receive(pkt(id))
	}
	s.Run(10 * time.Millisecond)
	if err := l.SetDelay(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	l.Receive(pkt(4)) // leaves at 11 ms, due at 16 ms: overtakes 1-3
	l.Receive(pkt(5)) // leaves at 12 ms, due at 17 ms
	s.Run(45 * time.Millisecond)
	l.Receive(pkt(6)) // leaves at 46 ms, due at 51 ms: ties with 1, which left first
	s.RunAll()

	wantID := []uint64{4, 5, 1, 6, 2, 3}
	wantAt := []sim.Time{16, 17, 51, 51, 52, 53}
	if len(sink.pkts) != len(wantID) {
		t.Fatalf("delivered %d packets, want %d", len(sink.pkts), len(wantID))
	}
	for i, p := range sink.pkts {
		if pktID(p) != wantID[i] || sink.at[i] != wantAt[i]*time.Millisecond {
			t.Fatalf("arrival %d: packet %d at %v, want packet %d at %v",
				i, pktID(p), sink.at[i], wantID[i], wantAt[i]*time.Millisecond)
		}
	}
}

// TestLinkFlapDropsExactlyTheWirePackets flaps the carrier while three
// packets share the wire and two more wait in the queue: the three are
// lost on arrival, the queued two survive the outage, and a packet sent
// after the link is back is delivered.
func TestLinkFlapDropsExactlyTheWirePackets(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	l := Must(NewLink(s, 8e6, 50*time.Millisecond, Must(NewDropTail(10)), sink))
	for id := uint64(1); id <= 5; id++ {
		l.Receive(pkt(id))
	}
	s.Run(2500 * time.Microsecond) // 1 and 2 fully on the wire, 3 serializing
	l.SetDown(true)
	s.Run(20 * time.Millisecond)
	l.SetDown(false) // resumes with 4 and 5
	l.Receive(pkt(6))
	s.RunAll()

	if l.FaultDrops != 3 {
		t.Fatalf("fault drops = %d, want 3 (the packets on the wire at the flap)", l.FaultDrops)
	}
	var got []uint64
	for _, p := range sink.pkts {
		got = append(got, pktID(p))
	}
	if len(got) != 3 || got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("delivered %v, want [4 5 6]", got)
	}
}

// TestLinkReentrantReceiveFromDst has the downstream node answer every
// arrival by feeding a new packet straight back into the same link, from
// inside the delivery — while other packets are still on the wire. Every
// packet and every answer must arrive, in transmission order.
func TestLinkReentrantReceiveFromDst(t *testing.T) {
	s := sim.NewScheduler(1)
	var l *Link
	var got []uint64
	echo := NodeFunc(func(p *Packet) {
		got = append(got, pktID(p))
		if id := pktID(p); id < 100 {
			l.Receive(pkt(id + 100)) // re-enters Receive -> transmitNext -> push
		}
	})
	l = Must(NewLink(s, 8e6, 3*time.Millisecond, Must(NewDropTail(10)), echo))
	for id := uint64(1); id <= 4; id++ {
		l.Receive(pkt(id))
	}
	s.RunAll()

	// 1-4 arrive at 4, 5, 6, 7 ms. The first answer is offered while 4's
	// serialization completion is still pending, the rest to an idle link.
	want := []uint64{1, 2, 3, 4, 101, 102, 103, 104}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events still pending after RunAll", s.Pending())
	}
}

// TestSharedLanesBoundedByDelaysPending sends 10^5 packets down one link
// with a different size, and so a different delay, on every one and the
// propagation delay changing under them. The world never holds more
// lanes than delays were pending at once — the packets on the wire plus
// the one serialization completion — however many delays it has seen.
func TestSharedLanesBoundedByDelaysPending(t *testing.T) {
	s := sim.NewScheduler(1)
	const packets = 100_000
	delivered := 0
	l := Must(NewLink(s, 100e6, time.Millisecond, Must(NewDropTail(8)), NodeFunc(func(*Packet) { delivered++ })))
	peakWire, offered, seen := 0, 0, map[sim.Time]bool{}
	s.SetGuard(func(sim.Time, uint64, int) error {
		peakWire = max(peakWire, int(l.TxPackets)-delivered)
		if n := s.LaneCount(); n > peakWire+1 {
			t.Fatalf("%d lanes after at most %d packets on the wire at once, want one each plus the serialization lane", n, peakWire)
		}
		return nil
	})
	var feed *sim.Timer
	feed = s.NewTimer(func() {
		size := 40 + offered%1461*7%1461 // consecutive packets differ by 7 bytes
		seen[l.TransmissionDelay(size)+l.Delay] = true
		l.Receive(&Packet{Seq: int64(offered), Size: size})
		l.SetDelay(time.Millisecond + sim.Time(offered%3)) //nolint:errcheck // positive
		if offered++; offered < packets {
			feed.Reset(125 * time.Microsecond) // longer than any packet serializes: nothing queues
		}
	})
	feed.Reset(0)
	s.RunAll()
	if delivered != packets || len(seen) < 1000 {
		t.Fatalf("delivered %d of %d packets with %d distinct delays; want all, and thousands", delivered, packets, len(seen))
	}
	if peakWire < 3 || peakWire > 16 {
		t.Fatalf("peak of %d packets on the wire; the link is not the short pipe this test means to fill", peakWire)
	}
}
