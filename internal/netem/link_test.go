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
