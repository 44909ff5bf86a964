package rrtcp_test

// Validation tests: the simulator's behaviour checked against
// closed-form transport arithmetic, so the reproduction's substrate is
// trustworthy before any algorithm comparison happens on top of it.

import (
	"math"
	"testing"
	"time"

	"rrtcp"
)

// paper Table 3 one-way latency components, in seconds.
const (
	dataTx1000AtSide       = 1000 * 8 / 10e6  // 0.8 ms
	dataTx1000AtBottleneck = 1000 * 8 / 0.8e6 // 10 ms
	ackTx40AtSide          = 40 * 8 / 10e6
	ackTx40AtBottleneck    = 40 * 8 / 0.8e6
	sideProp               = 0.001
	bottleneckProp         = 0.050
)

// baseRTT is the no-queueing round trip of a 1000-byte data packet and
// its 40-byte ACK across the Table 3 dumbbell (store-and-forward at
// each of the three hops in both directions).
func baseRTT() float64 {
	fwd := 2*(dataTx1000AtSide+sideProp) + dataTx1000AtBottleneck + bottleneckProp
	rev := 2*(ackTx40AtSide+sideProp) + ackTx40AtBottleneck + bottleneckProp
	return fwd + rev
}

// TestWindowLimitedThroughput pins the fundamental identity
// throughput = window / RTT for a flow whose window is below the BDP:
// no queueing, so the RTT is the propagation+transmission constant.
func TestWindowLimitedThroughput(t *testing.T) {
	const window = 5
	sched := rrtcp.NewScheduler(1)
	d, err := rrtcp.NewDumbbell(sched, rrtcp.PaperDropTailConfig(1))
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	flow, err := rrtcp.InstallFlow(sched, d, 0, rrtcp.FlowSpec{
		Kind:   rrtcp.NewReno,
		Bytes:  rrtcp.Infinite,
		Window: window,
	})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	flow.Trace.Record()
	sched.Run(60 * time.Second)

	got := flow.Trace.GoodputBps(10*time.Second, 60*time.Second)
	want := window * 1000 * 8 / baseRTT()
	if ratio := got / want; ratio < 0.97 || ratio > 1.03 {
		t.Fatalf("throughput %f, analytic %f (ratio %f)", got, want, ratio)
	}
	if d.BottleneckQueue().Drops != 0 {
		t.Fatalf("window below BDP must not drop (got %d)", d.BottleneckQueue().Drops)
	}
}

// TestBottleneckLimitedThroughput pins the saturation case: a window
// equal to BDP+buffer keeps the 0.8 Mbps link fully busy without drops.
func TestBottleneckLimitedThroughput(t *testing.T) {
	sched := rrtcp.NewScheduler(1)
	d, err := rrtcp.NewDumbbell(sched, rrtcp.PaperDropTailConfig(1))
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	// BDP ≈ baseRTT * 100 pkt/s ≈ 12 packets; +8 buffer ≈ 18-19 max.
	flow, err := rrtcp.InstallFlow(sched, d, 0, rrtcp.FlowSpec{
		Kind:            rrtcp.NewReno,
		Bytes:           rrtcp.Infinite,
		Window:          18,
		InitialSSThresh: 9,
	})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	flow.Trace.Record()
	sched.Run(60 * time.Second)

	got := flow.Trace.GoodputBps(10*time.Second, 60*time.Second)
	if ratio := got / 0.8e6; ratio < 0.97 || ratio > 1.001 {
		t.Fatalf("saturated goodput %f, want ~0.8 Mbps (ratio %f)", got, ratio)
	}
	if d.BottleneckQueue().Drops != 0 {
		t.Fatalf("window within pipe capacity must not drop (got %d)", d.BottleneckQueue().Drops)
	}
}

// TestQueueingDelayShowsInRTT pins Little's-law-style queueing: with a
// window w above the BDP, the standing queue is w−BDP packets, each
// adding one bottleneck service time (10 ms) to the RTT.
func TestQueueingDelayShowsInRTT(t *testing.T) {
	const window = 16
	sched := rrtcp.NewScheduler(1)
	d, err := rrtcp.NewDumbbell(sched, rrtcp.PaperDropTailConfig(1))
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	flow, err := rrtcp.InstallFlow(sched, d, 0, rrtcp.FlowSpec{
		Kind:            rrtcp.NewReno,
		Bytes:           rrtcp.Infinite,
		Window:          window,
		InitialSSThresh: 8,
	})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	sched.Run(60 * time.Second)

	// Little's law at saturation: all w packets are either queued or in
	// service at the 100 pkt/s bottleneck, so RTT = w/μ = w × 10 ms.
	want := window * dataTx1000AtBottleneck
	got := flow.Sender.SRTT()
	if ratio := got / want; ratio < 0.95 || ratio > 1.08 {
		t.Fatalf("srtt %f, Little's law %f (ratio %f)", got, want, ratio)
	}
}

// TestTwoFlowSharing pins the paper's own §3.3 observation about the
// two gateway families: drop-tail "arbitrarily distributes packet
// losses among TCP connections" (no fairness guarantee, but no
// starvation and full utilization), while RED "minimizes the bias" —
// under RED the same two flows must split the link nearly evenly.
func TestTwoFlowSharing(t *testing.T) {
	run := func(red bool) (float64, float64) {
		sched := rrtcp.NewScheduler(1)
		cfg := rrtcp.PaperDropTailConfig(2)
		if red {
			cfg.ForwardQueue = rrtcp.Must(rrtcp.NewREDQueue(sched, rrtcp.PaperREDConfig()))
		}
		d, err := rrtcp.NewDumbbell(sched, cfg)
		if err != nil {
			t.Fatalf("dumbbell: %v", err)
		}
		flows, err := rrtcp.InstallFlows(sched, d, []rrtcp.FlowSpec{
			{Kind: rrtcp.RR, Bytes: rrtcp.Infinite, Window: 18},
			{Kind: rrtcp.RR, Bytes: rrtcp.Infinite, Window: 18, StartAt: 37 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("install: %v", err)
		}
		flows[0].Trace.Record()
		flows[1].Trace.Record()
		sched.Run(120 * time.Second)
		return flows[0].Trace.GoodputBps(20*time.Second, 120*time.Second),
			flows[1].Trace.GoodputBps(20*time.Second, 120*time.Second)
	}

	// Drop-tail: both flows alive and the link near capacity; sharing
	// may be arbitrarily skewed by phase effects (the paper's point).
	a, b := run(false)
	if a <= 0 || b <= 0 {
		t.Fatalf("drop-tail starved a flow: %f / %f", a, b)
	}
	if sum := (a + b) / 0.8e6; sum < 0.9 {
		t.Fatalf("drop-tail aggregate %f of capacity, want ≥0.9", sum)
	}

	// RED: random drops break the phase locking; shares within 30%.
	a, b = run(true)
	ratio := a / b
	if ratio < 0.70 || ratio > 1.43 {
		t.Fatalf("RED split still biased: %f vs %f (ratio %f)", a, b, ratio)
	}
}

// TestLossRateMatchesConfigured pins the loss injector arithmetic end
// to end: the retransmission count of a long SACK transfer under p=2%
// uniform loss lands near 2% of transmissions.
func TestLossRateMatchesConfigured(t *testing.T) {
	sched := rrtcp.NewScheduler(5)
	loss := rrtcp.NewUniformLoss(sched, 0.02)
	cfg := rrtcp.DumbbellConfig{
		Flows:           1,
		BottleneckBps:   10e6,
		BottleneckDelay: 20 * time.Millisecond,
		SideBps:         100e6,
		SideDelay:       time.Millisecond,
		ForwardQueue:    rrtcp.Must(rrtcp.NewDropTailQueue(sched, 1000)),
		Loss:            loss,
	}
	d, err := rrtcp.NewDumbbell(sched, cfg)
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	flow, err := rrtcp.InstallFlow(sched, d, 0, rrtcp.FlowSpec{
		Kind: rrtcp.SACK, Bytes: rrtcp.Infinite, Window: 64,
	})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	sched.Run(120 * time.Second)
	measured := flow.Sender.LossRate()
	if math.Abs(measured-0.02) > 0.01 {
		t.Fatalf("measured loss rate %f, configured 0.02", measured)
	}
}
