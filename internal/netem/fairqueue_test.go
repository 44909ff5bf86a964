package netem

import (
	"testing"
	"time"

	"rrtcp/internal/sim"
)

func flowPkt(flow int, size int) *Packet {
	return &Packet{Flow: flow, Kind: Data, Size: size, Len: size}
}

func TestDRRSingleFlowFIFO(t *testing.T) {
	q := Must(NewDRR(1000, 10))
	var sent []*Packet
	for i := 0; i < 5; i++ {
		p := flowPkt(1, 1000)
		sent = append(sent, p)
		if !q.Enqueue(p, 0) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	for i := 0; i < 5; i++ {
		p := q.Dequeue()
		if p != sent[i] {
			t.Fatalf("dequeue %d out of order", i)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("empty dequeue returned packet")
	}
}

func TestDRRInterleavesEqualFlows(t *testing.T) {
	q := Must(NewDRR(1000, 20))
	for i := 0; i < 4; i++ {
		q.Enqueue(flowPkt(1, 1000), 0)
	}
	for i := 0; i < 4; i++ {
		q.Enqueue(flowPkt(2, 1000), 0)
	}
	var order []int
	for p := q.Dequeue(); p != nil; p = q.Dequeue() {
		order = append(order, p.Flow)
	}
	if len(order) != 8 {
		t.Fatalf("%d packets, want 8", len(order))
	}
	// With one-packet quanta the flows must alternate.
	for i := 2; i < len(order); i++ {
		if order[i] == order[i-1] && order[i] == order[i-2] {
			t.Fatalf("no interleaving: %v", order)
		}
	}
}

func TestDRRFavorsSmallPacketsByBytes(t *testing.T) {
	// Flow 1 sends 1000-byte packets, flow 2 sends 100-byte packets:
	// per round flow 2 should drain ~10 packets for each of flow 1's.
	q := Must(NewDRR(1000, 100))
	for i := 0; i < 10; i++ {
		q.Enqueue(flowPkt(1, 1000), 0)
	}
	for i := 0; i < 40; i++ {
		q.Enqueue(flowPkt(2, 100), 0)
	}
	small, big := 0, 0
	for i := 0; i < 22; i++ {
		p := q.Dequeue()
		if p == nil {
			break
		}
		if p.Flow == 1 {
			big++
		} else {
			small++
		}
	}
	if small < 5*big {
		t.Fatalf("byte fairness broken: %d small vs %d big packets served", small, big)
	}
}

func TestDRRLongestQueueDropProtectsSparseFlow(t *testing.T) {
	q := Must(NewDRR(1000, 10))
	// Flow 1 fills the buffer.
	for i := 0; i < 10; i++ {
		q.Enqueue(flowPkt(1, 1000), 0)
	}
	// A sparse flow's packet must still get in, evicting from flow 1.
	if !q.Enqueue(flowPkt(2, 40), 0) {
		t.Fatal("sparse flow's packet rejected despite longest-queue drop")
	}
	if q.Drops[1] != 1 {
		t.Fatalf("drops[1] = %d, want 1", q.Drops[1])
	}
	if q.FlowLen(2) != 1 {
		t.Fatal("sparse packet not queued")
	}
	if q.Len() != 10 {
		t.Fatalf("total = %d, want limit 10", q.Len())
	}
}

func TestDRRDropsOwnTailWhenLongest(t *testing.T) {
	q := Must(NewDRR(1000, 4))
	for i := 0; i < 4; i++ {
		q.Enqueue(flowPkt(1, 1000), 0)
	}
	if q.Enqueue(flowPkt(1, 1000), 0) {
		t.Fatal("longest flow's own packet accepted at limit")
	}
	if q.Drops[1] != 1 {
		t.Fatalf("drops[1] = %d, want 1", q.Drops[1])
	}
}

func TestDRRQuantumSmallerThanPacket(t *testing.T) {
	// Deficit must accumulate across rounds; no livelock.
	q := Must(NewDRR(100, 10))
	q.Enqueue(flowPkt(1, 1000), 0)
	p := q.Dequeue()
	if p == nil {
		t.Fatal("packet never served with sub-packet quantum")
	}
}

func TestDRRBehindLink(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	l := Must(NewLink(s, 0.8e6, time.Millisecond, Must(NewDRR(1000, 10)), sink))
	for i := 0; i < 3; i++ {
		l.Receive(flowPkt(1, 1000))
		l.Receive(flowPkt(2, 1000))
	}
	s.RunAll()
	if len(sink.pkts) != 6 {
		t.Fatalf("delivered %d, want 6", len(sink.pkts))
	}
}

func TestCBRRateAndSize(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	// 0.8 Mbps with 1000-byte packets = 100 packets/s.
	src := NewCBR(s, 7, 0.8e6, 1000, sink)
	if err := src.Start(0); err != nil {
		t.Fatalf("start: %v", err)
	}
	s.Run(time.Second)
	if n := len(sink.pkts); n < 99 || n > 102 {
		t.Fatalf("%d packets in 1s, want ~100", n)
	}
	if sink.pkts[0].Size != 1000 || sink.pkts[0].Flow != 7 {
		t.Fatalf("packet fields wrong: %+v", sink.pkts[0])
	}
}

func TestCBRStop(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	src := NewCBR(s, 7, 0.8e6, 1000, sink)
	if err := src.Start(0); err != nil {
		t.Fatalf("start: %v", err)
	}
	s.Run(100 * time.Millisecond)
	src.Stop()
	n := len(sink.pkts)
	s.Run(time.Second)
	if len(sink.pkts) > n+1 {
		t.Fatalf("CBR kept emitting after Stop: %d → %d", n, len(sink.pkts))
	}
}
