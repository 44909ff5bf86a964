package netem

import (
	"math"
	"math/rand"
	"testing"
)

func TestUniformLossRate(t *testing.T) {
	sink := &collector{}
	u := NewUniformLoss(0.1, rand.New(rand.NewSource(1)), sink)
	const n = 20000
	for i := uint64(0); i < n; i++ {
		u.Receive(pkt(i))
	}
	rate := float64(u.Dropped) / n
	if math.Abs(rate-0.1) > 0.01 {
		t.Fatalf("drop rate %f, want ~0.1", rate)
	}
	if int(u.Dropped)+len(sink.pkts) != n {
		t.Fatalf("dropped %d + forwarded %d != %d", u.Dropped, len(sink.pkts), n)
	}
}

func TestUniformLossSparesAcksByDefault(t *testing.T) {
	sink := &collector{}
	u := NewUniformLoss(1.0, rand.New(rand.NewSource(1)), sink)
	u.Receive(&Packet{Kind: Ack, Size: 40})
	if len(sink.pkts) != 1 {
		t.Fatal("ACK dropped despite DropAcks=false")
	}
	u.Receive(pkt(1))
	if len(sink.pkts) != 1 {
		t.Fatal("data packet survived p=1")
	}
}

func TestUniformLossDropAcks(t *testing.T) {
	sink := &collector{}
	u := NewUniformLoss(1.0, rand.New(rand.NewSource(1)), sink)
	u.DropAcks = true
	u.Receive(&Packet{Kind: Ack, Size: 40})
	if len(sink.pkts) != 0 {
		t.Fatal("ACK survived p=1 with DropAcks")
	}
}

func TestUniformLossZeroRate(t *testing.T) {
	sink := &collector{}
	u := NewUniformLoss(0, rand.New(rand.NewSource(1)), sink)
	for i := uint64(0); i < 100; i++ {
		u.Receive(pkt(i))
	}
	if u.Dropped != 0 || len(sink.pkts) != 100 {
		t.Fatalf("p=0 dropped %d packets", u.Dropped)
	}
}

func TestSeqLossDropsFirstTransmissionOnce(t *testing.T) {
	sink := &collector{}
	l := NewSeqLoss(sink)
	l.Drop(0, 5000)

	l.Receive(&Packet{Flow: 0, Kind: Data, Seq: 5000, Len: 1000, Size: 1000})
	if len(sink.pkts) != 0 {
		t.Fatal("registered sequence not dropped")
	}
	// The retransmission passes.
	l.Receive(&Packet{Flow: 0, Kind: Data, Seq: 5000, Len: 1000, Size: 1000, Retransmit: true})
	if len(sink.pkts) != 1 {
		t.Fatal("retransmission dropped")
	}
	// A fresh first transmission of the same seq (go-back-N resend)
	// also passes: the pattern fires once.
	l.Receive(&Packet{Flow: 0, Kind: Data, Seq: 5000, Len: 1000, Size: 1000})
	if len(sink.pkts) != 2 {
		t.Fatal("sequence dropped twice")
	}
	if l.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", l.Dropped)
	}
}

func TestSeqLossDropRetransmit(t *testing.T) {
	sink := &collector{}
	l := NewSeqLoss(sink)
	l.Drop(0, 5000)
	l.DropRetransmit(0, 5000)

	l.Receive(&Packet{Flow: 0, Kind: Data, Seq: 5000, Len: 1000, Size: 1000})
	l.Receive(&Packet{Flow: 0, Kind: Data, Seq: 5000, Len: 1000, Size: 1000, Retransmit: true})
	if len(sink.pkts) != 0 {
		t.Fatal("first retransmission not dropped")
	}
	l.Receive(&Packet{Flow: 0, Kind: Data, Seq: 5000, Len: 1000, Size: 1000, Retransmit: true})
	if len(sink.pkts) != 1 {
		t.Fatal("second retransmission dropped")
	}
}

func TestSeqLossIsPerFlow(t *testing.T) {
	sink := &collector{}
	l := NewSeqLoss(sink)
	l.Drop(0, 5000)
	l.Receive(&Packet{Flow: 1, Kind: Data, Seq: 5000, Len: 1000, Size: 1000})
	if len(sink.pkts) != 1 {
		t.Fatal("drop pattern leaked across flows")
	}
}

func TestSeqLossIgnoresAcks(t *testing.T) {
	sink := &collector{}
	l := NewSeqLoss(sink)
	l.Drop(0, 5000)
	l.Receive(&Packet{Flow: 0, Kind: Ack, AckNo: 5000, Size: 40})
	if len(sink.pkts) != 1 {
		t.Fatal("ACK dropped by data-only injector")
	}
}

func TestPacketEndSeqAndString(t *testing.T) {
	p := &Packet{Flow: 2, Kind: Data, Seq: 3000, Len: 1000, Size: 1000}
	if p.EndSeq() != 4000 {
		t.Fatalf("EndSeq = %d, want 4000", p.EndSeq())
	}
	if p.String() == "" {
		t.Fatal("empty String()")
	}
	a := &Packet{Flow: 2, Kind: Ack, AckNo: 4000, Size: 40}
	if a.String() == "" {
		t.Fatal("empty ack String()")
	}
	if Data.String() != "data" || Ack.String() != "ack" {
		t.Fatal("PacketKind.String wrong")
	}
}

func TestSeqLossDropAck(t *testing.T) {
	sink := &collector{}
	l := NewSeqLoss(sink)
	l.DropAck(0, 5000)
	l.Receive(&Packet{Flow: 0, Kind: Ack, AckNo: 5000, Size: 40})
	if len(sink.pkts) != 0 {
		t.Fatal("registered ACK not dropped")
	}
	// Only the first matching ACK drops; the receiver's dup re-sends
	// get through.
	l.Receive(&Packet{Flow: 0, Kind: Ack, AckNo: 5000, Size: 40})
	if len(sink.pkts) != 1 {
		t.Fatal("second matching ACK dropped")
	}
	if l.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", l.Dropped)
	}
}
