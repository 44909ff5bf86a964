package netem

import (
	"math/rand"
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
	if q.flows[2].q.n != 1 {
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

// refDRR is the slice-and-map DRR this package used before the per-flow
// rings: the behavioural oracle for TestDRRMatchesSliceReference.
type refDRR struct {
	quantum, limit, total int
	queues                map[int][]*Packet
	deficit               map[int]int
	fresh                 map[int]bool
	active                []int
}

func (d *refDRR) deactivate(flow int) {
	for i, f := range d.active {
		if f == flow {
			d.active = append(d.active[:i:i], d.active[i+1:]...)
			break
		}
	}
	d.deficit[flow] = 0
	delete(d.fresh, flow)
}

func (d *refDRR) enqueue(p *Packet) bool {
	if d.total >= d.limit {
		victim, bestLen := -1, 0
		for _, f := range d.active {
			if l := len(d.queues[f]); l > bestLen {
				victim, bestLen = f, l
			}
		}
		if victim == p.Flow || victim == -1 {
			return false
		}
		q := d.queues[victim]
		d.queues[victim] = q[:len(q)-1]
		d.total--
		if len(d.queues[victim]) == 0 {
			d.deactivate(victim)
		}
	}
	if len(d.queues[p.Flow]) == 0 {
		d.active = append(d.active, p.Flow)
		d.fresh[p.Flow] = true
	}
	d.queues[p.Flow] = append(d.queues[p.Flow], p)
	d.total++
	return true
}

func (d *refDRR) dequeue() *Packet {
	for d.total > 0 {
		flow := d.active[0]
		if d.fresh[flow] {
			d.deficit[flow] += d.quantum
			d.fresh[flow] = false
		}
		if q := d.queues[flow]; q[0].Size <= d.deficit[flow] {
			d.queues[flow] = q[1:]
			d.deficit[flow] -= q[0].Size
			d.total--
			if len(d.queues[flow]) == 0 {
				d.deactivate(flow)
			}
			return q[0]
		}
		d.active = append(d.active[1:len(d.active):len(d.active)], flow)
		d.fresh[flow] = true
	}
	return nil
}

// TestDRRMatchesSliceReference drives random arrivals (mixed sizes,
// buffers small enough to evict) and departures through the ring-based queue and the old implementation,
// and requires the same accept/reject decisions and departure order.
func TestDRRMatchesSliceReference(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		rng := rand.New(rand.NewSource(trial))
		// Limits below the flow count make the longest queue one packet
		// deep, so evicting its tail empties it mid-round.
		limit := 3 + int(trial)%10
		q := Must(NewDRR(500, limit))
		ref := &refDRR{quantum: 500, limit: limit,
			queues: map[int][]*Packet{}, deficit: map[int]int{}, fresh: map[int]bool{}}
		for step := 0; step < 3000; step++ {
			if rng.Intn(5) < 3 {
				p := flowPkt(rng.Intn(6), 40+rng.Intn(3)*480)
				if got, want := q.Enqueue(p, 0), ref.enqueue(p); got != want {
					t.Fatalf("trial %d step %d: enqueue accepted=%v, reference %v", trial, step, got, want)
				}
			} else if got, want := q.Dequeue(), ref.dequeue(); got != want {
				t.Fatalf("trial %d step %d: dequeued %+v, reference %+v", trial, step, got, want)
			}
			if q.Len() != ref.total {
				t.Fatalf("trial %d step %d: len %d, reference %d", trial, step, q.Len(), ref.total)
			}
		}
	}
}

// TestDRRSteadyStateZeroAlloc: once every flow has been seen and the
// rings have grown, enqueue/dequeue cycles — rotation of the round and
// longest-queue eviction included — allocate nothing.
func TestDRRSteadyStateZeroAlloc(t *testing.T) {
	var pp PacketPool
	q := Must(NewDRR(500, 16))
	cycle := func() {
		for i := 0; i < 24; i++ { // 8 over the limit: evicts
			p := pp.Get()
			p.Flow, p.Size = i%4, 40+(i%3)*480
			if !q.Enqueue(p, 0) {
				p.Release()
			}
		}
		for p := q.Dequeue(); p != nil; p = q.Dequeue() {
			p.Release()
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("warm DRR enqueue/dequeue allocates %.2f allocs/run, want 0", avg)
	}
}

func TestCBRRateAndSize(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	// 0.8 Mbps with 1000-byte packets = 100 packets/s.
	src := NewCBR(s, nil, 7, 0.8e6, 1000, sink)
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
	src := NewCBR(s, nil, 7, 0.8e6, 1000, sink)
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
