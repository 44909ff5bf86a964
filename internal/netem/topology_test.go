package netem

import (
	"testing"
	"time"

	"rrtcp/internal/sim"
)

func TestDumbbellForwardPath(t *testing.T) {
	s := sim.NewScheduler(1)
	d, err := NewDumbbell(s, PaperDropTailConfig(2))
	if err != nil {
		t.Fatalf("NewDumbbell: %v", err)
	}
	sink0 := &collector{sched: s}
	sink1 := &collector{sched: s}
	d.ConnectReceiver(0, sink0)
	d.ConnectReceiver(1, sink1)

	p := pkt(1)
	p.Flow = 0
	d.SenderPort(0).Receive(p)
	q := pkt(2)
	q.Flow = 1
	d.SenderPort(1).Receive(q)
	s.RunAll()

	if len(sink0.pkts) != 1 || pktID(sink0.pkts[0]) != 1 {
		t.Fatalf("flow 0 delivery wrong: %v", sink0.pkts)
	}
	if len(sink1.pkts) != 1 || pktID(sink1.pkts[0]) != 2 {
		t.Fatalf("flow 1 delivery wrong: %v", sink1.pkts)
	}
}

func TestDumbbellReversePath(t *testing.T) {
	s := sim.NewScheduler(1)
	d, err := NewDumbbell(s, PaperDropTailConfig(2))
	if err != nil {
		t.Fatalf("NewDumbbell: %v", err)
	}
	sink := &collector{sched: s}
	d.ConnectSender(1, sink)
	ack := &Packet{Flow: 1, Kind: Ack, AckNo: 1000, Size: 40}
	d.ReceiverPort(1).Receive(ack)
	s.RunAll()
	if len(sink.pkts) != 1 || sink.pkts[0] != ack {
		t.Fatalf("ack delivery wrong: %v", sink.pkts)
	}
}

func TestDumbbellEndToEndDelay(t *testing.T) {
	s := sim.NewScheduler(1)
	cfg := PaperDropTailConfig(1)
	d, err := NewDumbbell(s, cfg)
	if err != nil {
		t.Fatalf("NewDumbbell: %v", err)
	}
	sink := &collector{sched: s}
	d.ConnectReceiver(0, sink)
	p := pkt(1)
	p.Flow = 0
	d.SenderPort(0).Receive(p)
	s.RunAll()
	// side (1ms prop + 0.8ms tx) + bottleneck (50ms prop + 10ms tx) +
	// side (1ms prop + 0.8ms tx) = 63.6 ms.
	want := 63600 * time.Microsecond
	if sink.at[0] != want {
		t.Fatalf("one-way delay %v, want %v", sink.at[0], want)
	}
}

func TestDumbbellBottleneckSharedAcrossFlows(t *testing.T) {
	s := sim.NewScheduler(1)
	cfg := PaperDropTailConfig(2)
	cfg.ForwardQueue = Must(NewDropTail(1))
	d, err := NewDumbbell(s, cfg)
	if err != nil {
		t.Fatalf("NewDumbbell: %v", err)
	}
	sink0 := &collector{sched: s}
	sink1 := &collector{sched: s}
	d.ConnectReceiver(0, sink0)
	d.ConnectReceiver(1, sink1)
	// Burst of 6 packets from both senders into a 1-packet bottleneck
	// buffer: some must drop at the shared queue.
	for i := uint64(0); i < 3; i++ {
		p := pkt(i)
		p.Flow = 0
		d.SenderPort(0).Receive(p)
		q := pkt(i + 10)
		q.Flow = 1
		d.SenderPort(1).Receive(q)
	}
	s.RunAll()
	delivered := len(sink0.pkts) + len(sink1.pkts)
	if delivered+int(d.BottleneckQueue().Drops) != 6 {
		t.Fatalf("delivered %d + dropped %d != 6", delivered, d.BottleneckQueue().Drops)
	}
	if d.BottleneckQueue().Drops == 0 {
		t.Fatal("no drops despite 1-packet shared buffer")
	}
}

func TestDumbbellLossModuleInsertion(t *testing.T) {
	s := sim.NewScheduler(1)
	loss := NewSeqLoss(nil)
	loss.Drop(0, 0)
	cfg := PaperDropTailConfig(1)
	cfg.Loss = loss
	d, err := NewDumbbell(s, cfg)
	if err != nil {
		t.Fatalf("NewDumbbell: %v", err)
	}
	sink := &collector{sched: s}
	d.ConnectReceiver(0, sink)
	p := pkt(1)
	p.Flow = 0
	p.Seq = 0
	d.SenderPort(0).Receive(p)
	s.RunAll()
	if len(sink.pkts) != 0 {
		t.Fatal("loss module did not intercept the forward path")
	}
	if loss.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", loss.Dropped)
	}
}

func TestDumbbellValidation(t *testing.T) {
	s := sim.NewScheduler(1)
	if _, err := NewDumbbell(s, DumbbellConfig{Flows: 0, BottleneckBps: 1, SideBps: 1}); err == nil {
		t.Fatal("zero flows accepted")
	}
	if _, err := NewDumbbell(s, DumbbellConfig{Flows: 1, BottleneckBps: 0, SideBps: 1}); err == nil {
		t.Fatal("zero bottleneck bandwidth accepted")
	}
	if _, err := NewDumbbell(s, DumbbellConfig{Flows: 1, BottleneckBps: 1, SideBps: -1}); err == nil {
		t.Fatal("negative side bandwidth accepted")
	}
}

// A packet for a flow beyond the dumbbell's Flows reaches no receiver:
// the gateway's routing table releases it to the pool.
func TestDemuxDropsUnknownFlow(t *testing.T) {
	s := sim.NewScheduler(1)
	d, err := NewDumbbell(s, PaperDropTailConfig(1))
	if err != nil {
		t.Fatalf("NewDumbbell: %v", err)
	}
	sink := &collector{sched: s}
	d.ConnectReceiver(0, sink)
	for _, flow := range []int{1, 99, -1} {
		p := d.Pool().Get()
		p.Flow = flow
		d.fwdDemux.Receive(p)
		s.Run(time.Second)
		if len(sink.pkts) != 0 {
			t.Fatalf("flow %d delivered", flow)
		}
		if q := d.Pool().Get(); q != p {
			t.Fatalf("flow %d: the packet was not released to the pool", flow)
		}
	}
}

func TestPaperDropTailConfigMatchesTable3(t *testing.T) {
	cfg := PaperDropTailConfig(3)
	if cfg.Flows != 3 {
		t.Fatalf("flows = %d", cfg.Flows)
	}
	if cfg.BottleneckBps != 0.8e6 {
		t.Fatalf("bottleneck = %v, want 0.8 Mbps", cfg.BottleneckBps)
	}
	if cfg.SideBps != 10e6 {
		t.Fatalf("side = %v, want 10 Mbps", cfg.SideBps)
	}
	dt, ok := cfg.ForwardQueue.(*DropTail)
	if !ok || dt.Limit() != 8 {
		t.Fatalf("forward queue %T limit, want 8-packet drop-tail", cfg.ForwardQueue)
	}
}

// TestNewDumbbellAllocationsIndependentOfFlows: what the flow count
// sizes — 4n+2 links with their queues and drop-tails, the side links'
// first rings, the routing tables — is a fixed number of blocks, so
// building a 300-flow dumbbell makes exactly as many allocations as
// building a one-flow one, and running traffic over its side links
// grows no ring.
func TestNewDumbbellAllocationsIndependentOfFlows(t *testing.T) {
	sched := sim.NewScheduler(1) // the warm-up call makes its two lane sets
	build := func(flows int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := NewDumbbell(sched, DumbbellConfig{
				Flows: flows, BottleneckBps: 0.8e6, BottleneckDelay: 50 * time.Millisecond,
				SideBps: 10e6, SideDelay: time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := build(1), build(300); one != many || one > 4 {
		t.Fatalf("NewDumbbell allocates %.0f times for 1 flow, %.0f for 300: want the same four blocks", one, many)
	}

	s := sim.NewScheduler(1)
	d := Must(NewDumbbell(s, PaperDropTailConfig(50)))
	for i := 0; i < 50; i++ {
		d.ConnectReceiver(i, NodeFunc((*Packet).Release))
		d.ConnectSender(i, NodeFunc((*Packet).Release))
	}
	send := func() {
		for i := 0; i < 50; i++ {
			for k := 0; k < 4; k++ {
				p := d.Pool().Get()
				p.Flow, p.Kind, p.Size = i, Ack, 40
				d.ReceiverPort(i).Receive(p)
			}
		}
		s.RunAll()
	}
	send() // warm: the pool, the lanes, the two bottleneck rings
	if avg := testing.AllocsPerRun(5, send); avg != 0 {
		t.Fatalf("traffic over 100 already-built side links allocates %.1f times a round, want 0", avg)
	}
}

// TestDumbbellSourcesDrawFromThePool: every packet source netem itself
// provides hands a dumbbell link packets of the dumbbell's pool — a
// packet with no pool is one allocation per packet that nothing ever
// reuses.
func TestDumbbellSourcesDrawFromThePool(t *testing.T) {
	s := sim.NewScheduler(1)
	d := Must(NewDumbbell(s, PaperDropTailConfig(1)))
	seen := 0
	d.SetReverseEntry(NodeFunc(func(p *Packet) {
		if seen++; p.pool != d.Pool() {
			t.Fatalf("packet %d reached the reverse bottleneck with pool %p, want the dumbbell's", seen, p.pool)
		}
		d.ReverseLink().Receive(p.Clone()) // a copy is drawn from the same pool
		p.Release()
	}))
	cbr := NewCBR(s, d.Pool(), 1000, 0.4e6, 1000, d.ReverseEntry())
	if err := cbr.Start(0); err != nil {
		t.Fatal(err)
	}
	s.Run(2 * time.Second)
	if seen < 50 {
		t.Fatalf("only %d packets emitted", seen)
	}
	// The link holds at most a queue and a wire of clones at once; every
	// other Get was a packet coming back.
	if pp := d.Pool(); pp.Gets != 2*uint64(seen) || pp.Gets-pp.Hits > 16 {
		t.Fatalf("pool served %d Gets for %d packets and their clones with %d misses", pp.Gets, seen, pp.Gets-pp.Hits)
	}
}
