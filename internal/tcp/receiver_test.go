package tcp

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
)

// ackSink records ACKs emitted by a receiver.
type ackSink struct {
	acks []*netem.Packet
}

func (a *ackSink) Receive(p *netem.Packet) { a.acks = append(a.acks, p) }

func (a *ackSink) last() *netem.Packet {
	if len(a.acks) == 0 {
		return nil
	}
	return a.acks[len(a.acks)-1]
}

func newRecv(sack bool) (*Receiver, *ackSink) {
	sink := &ackSink{}
	r := NewReceiver(sim.NewScheduler(1), 0, sink, nil)
	r.SACKEnabled = sack
	return r, sink
}

func data(seq int64) *netem.Packet {
	return &netem.Packet{Flow: 0, Kind: netem.Data, Seq: seq, Len: 1000, Size: 1000}
}

func TestReceiverInOrderDelivery(t *testing.T) {
	r, sink := newRecv(false)
	for i := int64(0); i < 5; i++ {
		r.Receive(data(i * 1000))
	}
	if r.RcvNxt() != 5000 {
		t.Fatalf("rcvNxt = %d, want 5000", r.RcvNxt())
	}
	if len(sink.acks) != 5 {
		t.Fatalf("%d ACKs, want one per packet", len(sink.acks))
	}
	for i, a := range sink.acks {
		if a.AckNo != int64(i+1)*1000 {
			t.Fatalf("ack %d = %d, want %d", i, a.AckNo, (i+1)*1000)
		}
	}
}

func TestReceiverImmediateDupAckOnGap(t *testing.T) {
	r, sink := newRecv(false)
	r.Receive(data(0))
	r.Receive(data(2000)) // gap at 1000
	r.Receive(data(3000))
	if r.RcvNxt() != 1000 {
		t.Fatalf("rcvNxt advanced past the hole: %d", r.RcvNxt())
	}
	if len(sink.acks) != 3 {
		t.Fatalf("%d ACKs, want 3 (one per arrival)", len(sink.acks))
	}
	if sink.acks[1].AckNo != 1000 || sink.acks[2].AckNo != 1000 {
		t.Fatal("out-of-order arrivals did not produce duplicate ACKs")
	}
}

func TestReceiverFillsHoleAndJumps(t *testing.T) {
	r, sink := newRecv(false)
	r.Receive(data(0))
	r.Receive(data(2000))
	r.Receive(data(3000))
	r.Receive(data(1000)) // fill
	if r.RcvNxt() != 4000 {
		t.Fatalf("rcvNxt = %d after filling the hole, want 4000", r.RcvNxt())
	}
	if sink.last().AckNo != 4000 {
		t.Fatalf("big ACK = %d, want 4000", sink.last().AckNo)
	}
}

func TestReceiverDuplicateOldSegment(t *testing.T) {
	r, sink := newRecv(false)
	r.Receive(data(0))
	r.Receive(data(0)) // spurious retransmission
	if r.DupSegments != 1 {
		t.Fatalf("dupSegments = %d, want 1", r.DupSegments)
	}
	if sink.last().AckNo != 1000 {
		t.Fatal("old segment did not re-ACK rcvNxt")
	}
}

func TestReceiverIgnoresWrongFlowAndAcks(t *testing.T) {
	r, sink := newRecv(false)
	wrong := data(0)
	wrong.Flow = 3
	r.Receive(wrong)
	r.Receive(&netem.Packet{Flow: 0, Kind: netem.Ack, AckNo: 1000, Size: 40})
	if len(sink.acks) != 0 {
		t.Fatal("receiver responded to foreign or ACK packets")
	}
}

func TestReceiverSACKBlocks(t *testing.T) {
	r, sink := newRecv(true)
	r.Receive(data(0))
	r.Receive(data(2000))
	r.Receive(data(4000))
	r.Receive(data(6000))
	last := sink.last()
	if len(last.SACK) != 3 {
		t.Fatalf("%d SACK blocks, want 3", len(last.SACK))
	}
	// First block reports the most recent arrival.
	if last.SACK[0].Start != 6000 || last.SACK[0].End != 7000 {
		t.Fatalf("first SACK block %+v, want [6000,7000)", last.SACK[0])
	}
}

func TestReceiverSACKBlocksMerge(t *testing.T) {
	r, sink := newRecv(true)
	r.Receive(data(0))
	r.Receive(data(2000))
	r.Receive(data(3000)) // adjacent: merges with [2000,3000)
	last := sink.last()
	if len(last.SACK) != 1 {
		t.Fatalf("%d SACK blocks, want 1 merged", len(last.SACK))
	}
	if last.SACK[0].Start != 2000 || last.SACK[0].End != 4000 {
		t.Fatalf("merged block %+v, want [2000,4000)", last.SACK[0])
	}
}

func TestReceiverNoSACKWhenDisabled(t *testing.T) {
	r, sink := newRecv(false)
	r.Receive(data(2000))
	if len(sink.last().SACK) != 0 {
		t.Fatal("SACK blocks on a non-SACK receiver")
	}
}

func TestReceiverOutOfOrderBlocksAccessor(t *testing.T) {
	r, _ := newRecv(false)
	r.Receive(data(2000))
	r.Receive(data(5000))
	blocks := r.OutOfOrderBlocks()
	if len(blocks) != 2 {
		t.Fatalf("%d blocks, want 2", len(blocks))
	}
	if blocks[0].Start != 2000 || blocks[1].Start != 5000 {
		t.Fatalf("blocks %v not sorted", blocks)
	}
}

// Property: delivering a random permutation of segments always ends
// with rcvNxt covering everything, rcvNxt monotonically nondecreasing,
// and one ACK per arrival.
func TestReceiverPermutationProperty(t *testing.T) {
	f := func(seed int64, nSeg uint8) bool {
		n := int(nSeg%30) + 1
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(n)
		r, sink := newRecv(true)
		prev := int64(0)
		for _, i := range perm {
			r.Receive(data(int64(i) * 1000))
			if r.RcvNxt() < prev {
				return false
			}
			prev = r.RcvNxt()
		}
		return r.RcvNxt() == int64(n)*1000 &&
			len(sink.acks) == n &&
			len(r.OutOfOrderBlocks()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with duplicated deliveries mixed in, the receiver still
// converges and never reports overlapping out-of-order blocks.
func TestReceiverDuplicatesProperty(t *testing.T) {
	f := func(seed int64, nSeg uint8) bool {
		n := int(nSeg%20) + 1
		rng := rand.New(rand.NewSource(seed))
		r, _ := newRecv(true)
		// Deliver 3n random segments from [0, n), then the full set.
		for i := 0; i < 3*n; i++ {
			r.Receive(data(int64(rng.Intn(n)) * 1000))
			blocks := r.OutOfOrderBlocks()
			for j := 1; j < len(blocks); j++ {
				if blocks[j].Start < blocks[j-1].End {
					return false // overlap or disorder
				}
			}
		}
		for i := 0; i < n; i++ {
			r.Receive(data(int64(i) * 1000))
		}
		return r.RcvNxt() == int64(n)*1000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReceiverPartiallyOldSegment(t *testing.T) {
	// A segment straddling rcvNxt (old bytes + new bytes) delivers the
	// new portion.
	r, sink := newRecv(false)
	r.Receive(data(0))
	// 1500-byte segment starting at 500: bytes 500..1000 are old.
	r.Receive(&netem.Packet{Flow: 0, Kind: netem.Data, Seq: 500, Len: 1500, Size: 1500})
	if r.RcvNxt() != 2000 {
		t.Fatalf("rcvNxt = %d, want 2000", r.RcvNxt())
	}
	if sink.last().AckNo != 2000 {
		t.Fatalf("ack = %d", sink.last().AckNo)
	}
}

func TestReceiverManyDistinctHoles(t *testing.T) {
	// Every other packet arrives: the block list must track all holes
	// and drain in one pass once they fill.
	r, _ := newRecv(true)
	for i := int64(1); i <= 19; i += 2 {
		r.Receive(data(i * 1000))
	}
	if got := len(r.OutOfOrderBlocks()); got != 10 {
		t.Fatalf("%d blocks, want 10", got)
	}
	for i := int64(0); i <= 18; i += 2 {
		r.Receive(data(i * 1000))
	}
	if r.RcvNxt() != 20*1000 {
		t.Fatalf("rcvNxt = %d", r.RcvNxt())
	}
	if len(r.OutOfOrderBlocks()) != 0 {
		t.Fatal("blocks left after draining")
	}
}

// refReassembly is the receiver's reassembly state kept the
// allocate-freely way (a fresh merged slice per insert, one recency
// entry dropped per absorbed block, the list rebuilt by prepending) — the reference the in-place version must
// agree with after every arrival.
type refReassembly struct {
	rcvNxt         int64
	blocks, recent []seqRange
}

func (m *refReassembly) dropRecent(b seqRange) {
	for i, rb := range m.recent {
		if rb.Start >= b.Start && rb.End <= b.End {
			m.recent = append(m.recent[:i:i], m.recent[i+1:]...)
			return
		}
	}
}

func (m *refReassembly) receive(seq, end int64) {
	switch {
	case end <= m.rcvNxt:
	case seq <= m.rcvNxt:
		m.rcvNxt = end
		for len(m.blocks) > 0 && m.blocks[0].Start <= m.rcvNxt {
			m.rcvNxt = max(m.rcvNxt, m.blocks[0].End)
			m.dropRecent(m.blocks[0])
			m.blocks = m.blocks[1:]
		}
	default:
		nb := seqRange{Start: seq, End: end}
		for _, b := range m.blocks {
			if b.End >= nb.Start && b.Start <= nb.End {
				m.dropRecent(b)
				nb.Start, nb.End = min(nb.Start, b.Start), max(nb.End, b.End)
			}
		}
		// The blocks themselves: the oracle the senders' scoreboard is
		// held to (rangeset_test.go).
		m.blocks = copyingMerge(m.blocks, seqRange{Start: seq, End: end})
		m.recent = append([]seqRange{nb}, m.recent...)
		if len(m.recent) > 6 {
			m.recent = m.recent[:6]
		}
	}
}

// Segments of random length landing anywhere in a small window —
// overlapping, abutting, swallowing several blocks at once, filling the
// hole at rcvNxt — must leave the in-place receiver with the reference's
// blocks, recency order and cumulative ACK point.
func TestReceiverReassemblyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		r, sink := newRecv(true)
		ref := &refReassembly{}
		for i := 0; i < 200; i++ {
			seq := ref.rcvNxt + 100*(rng.Int63n(60)-3)
			if seq < 0 || rng.Intn(6) == 0 {
				seq = ref.rcvNxt // fill the hole
			}
			length := 100 * (1 + rng.Intn(8))
			r.Receive(&netem.Packet{Flow: 0, Kind: netem.Data, Seq: seq, Len: length, Size: length})
			ref.receive(seq, seq+int64(length))
			if r.rcvNxt != ref.rcvNxt || sink.last().AckNo != ref.rcvNxt {
				t.Fatalf("trial %d step %d: rcvNxt %d (ACK %d), reference %d", trial, i, r.rcvNxt, sink.last().AckNo, ref.rcvNxt)
			}
			if !slices.Equal([]seqRange(r.blocks), ref.blocks) {
				t.Fatalf("trial %d step %d: blocks %v, reference %v", trial, i, r.blocks, ref.blocks)
			}
			if !slices.Equal(r.recent[:r.nrecent], ref.recent) {
				t.Fatalf("trial %d step %d: recency %v, reference %v", trial, i, r.recent[:r.nrecent], ref.recent)
			}
		}
	}
}

// The out-of-order path — buffer a segment beyond a hole, merge its
// neighbours, report SACK blocks, then fill the hole and drain — reuses
// the receiver's own arrays: once they have grown to the working set it
// allocates nothing.
func TestReceiverOutOfOrderDoesNotAllocate(t *testing.T) {
	pool := &netem.PacketPool{}
	r := NewReceiver(sim.NewScheduler(1), 0, netem.NodeFunc(func(p *netem.Packet) { p.Release() }), nil)
	r.SACKEnabled = true
	r.Pool = pool
	send := func(seq int64) {
		p := pool.Get()
		p.Flow, p.Kind, p.Seq, p.Len, p.Size = 0, netem.Data, seq, 1000, 1000
		r.Receive(p)
	}
	base := int64(0)
	round := func() {
		// Four separate holes, two merges, then the fills that drain them.
		for _, off := range []int64{1, 3, 5, 7, 4, 6, 0, 2, 8} {
			send(base + off*1000)
		}
		base += 9000
	}
	round()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("out-of-order receive path allocates %.2f times per round, want 0", avg)
	}
	if r.RcvNxt() != base || len(r.blocks) != 0 || r.nrecent != 0 {
		t.Fatalf("receiver did not drain: rcvNxt %d (sent %d), blocks %v, recent %d", r.RcvNxt(), base, r.blocks, r.nrecent)
	}
}

// A SACK receiver's ACKs take the room for their blocks from the packet
// pool's slabs: 64 out-of-order segments, each answered by an ACK that
// carries SACK blocks and is never released, cost fewer allocations
// than ACKs, where an array an ACK would cost more.
func TestSACKReceiverTakesItsBlocksFromThePool(t *testing.T) {
	const segments = 64
	sched := sim.NewScheduler(1)
	var segs []*netem.Packet
	for i := int64(0); i <= segments; i++ {
		segs = append(segs, data(2000*i))
	}
	var sink *ackSink
	allocs := testing.AllocsPerRun(1, func() {
		sink = &ackSink{acks: make([]*netem.Packet, 0, segments+1)}
		r := NewReceiver(sched, 0, sink, nil)
		r.SACKEnabled, r.Pool = true, new(netem.PacketPool)
		for _, p := range segs {
			r.Receive(p)
		}
	})
	if got := len(sink.acks); got != segments+1 || len(sink.last().SACK) != 3 {
		t.Fatalf("%d ACKs, the last with %d SACK blocks; want %d and 3", got, len(sink.last().SACK), segments+1)
	}
	if allocs >= segments {
		t.Fatalf("%d SACK-carrying ACKs took %.0f allocations", segments, allocs)
	}
}
