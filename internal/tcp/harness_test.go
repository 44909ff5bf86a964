package tcp

import (
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/trace"
)

// testNet is a two-endpoint loopback network: sender → (loss) → data
// link → receiver, receiver → (ackLoss) → ack link → sender. Links are
// fast (10 Mbps) with 10 ms one-way delay, giving a ~20 ms RTT.
type testNet struct {
	sched   *sim.Scheduler
	sender  *Sender
	recv    *Receiver
	loss    *netem.SeqLoss
	ackLoss *netem.SeqLoss
	tr      *trace.FlowTrace
}

type testNetConfig struct {
	totalBytes  int64
	window      int
	ssthresh    float64
	sack        bool
	smoothStart bool
	onDone      func()
}

func newTestNet(t *testing.T, strat Strategy, cfg testNetConfig) *testNet {
	t.Helper()
	sched := sim.NewScheduler(1)
	tr := trace.New(0, strat.Name())
	tr.Record() // the behaviour tests read the sample series

	n := &testNet{sched: sched, tr: tr}

	dataLink := netem.Must(netem.NewLink(sched, 10e6, 10*time.Millisecond, netem.Must(netem.NewDropTail(1000)), nil))
	ackLink := netem.Must(netem.NewLink(sched, 10e6, 10*time.Millisecond, netem.Must(netem.NewDropTail(1000)), nil))
	n.loss = netem.NewSeqLoss(dataLink)
	n.ackLoss = netem.NewSeqLoss(ackLink)

	n.recv = NewReceiver(sched, 0, n.ackLoss, tr)
	n.recv.SACKEnabled = cfg.sack
	dataLink.Dst = n.recv

	if cfg.totalBytes == 0 {
		cfg.totalBytes = Infinite
	}
	sender, err := New(sched, n.loss, strat, Config{
		Flow:            0,
		Window:          cfg.window,
		InitialSSThresh: cfg.ssthresh,
		TotalBytes:      cfg.totalBytes,
		SmoothStart:     cfg.smoothStart,
		Trace:           tr,
		OnDone:          cfg.onDone,
	})
	if err != nil {
		t.Fatalf("new sender: %v", err)
	}
	n.sender = sender
	ackLink.Dst = sender
	return n
}

func (n *testNet) start(t *testing.T) {
	t.Helper()
	if err := n.sender.Start(0); err != nil {
		t.Fatalf("start: %v", err)
	}
}

func (n *testNet) run(d sim.Time) { n.sched.Run(d) }
