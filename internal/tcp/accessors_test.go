package tcp

import (
	"testing"
	"time"
	"unsafe"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/trace"
)

func TestSenderAccessors(t *testing.T) {
	n := newTestNet(t, NewTahoe(), testNetConfig{totalBytes: 10 * 1000, window: 7})
	s := n.sender
	if s.Flow() != 0 {
		t.Fatalf("Flow = %d", s.Flow())
	}
	if s.VariantName() != "tahoe" {
		t.Fatalf("VariantName = %q", s.VariantName())
	}
	if s.Window() != 7 {
		t.Fatalf("Window = %d", s.Window())
	}
	if s.TotalBytes() != 10*1000 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes())
	}
	if s.MSS() != DefaultMSS {
		t.Fatalf("MSS = %d", s.MSS())
	}
	if !(s.availableBytes() > 0) {
		t.Fatal("no new data before the transfer")
	}
	n.start(t)
	n.run(10 * time.Second)
	if s.availableBytes() > 0 {
		t.Fatal("new data left after the transfer")
	}
}

// SetCwnd is where the window's bounds live: it floors cwnd at one
// packet (RR's exit hands it actnum, which may be 0) and caps it at
// Config.Window.
func TestSetCwndFloorsAtOneAndCapsAtWindow(t *testing.T) {
	s := newTestNet(t, NewTahoe(), testNetConfig{window: 7}).sender
	for _, c := range []struct{ set, want float64 }{
		{0, 1}, {-3, 1}, {0.5, 1}, {1, 1}, {2.5, 2.5}, {7, 7}, {7.5, 7}, {100, 7},
	} {
		s.SetCwnd(c.set)
		if got := s.Cwnd(); got != c.want {
			t.Errorf("SetCwnd(%g): cwnd %g, want %g", c.set, got, c.want)
		}
	}
}

// The sender's counts are the ones a recorded log of the same run
// holds: ACKs, first sends against retransmissions, the done instant.
func TestSenderCountsMatchLog(t *testing.T) {
	n := newTestNet(t, NewReno4BSD(), testNetConfig{totalBytes: 30 * 1000, window: 8})
	n.loss.Drop(0, 5000, 6000)
	s := n.sender
	if _, ok := s.TransferDelay(); ok || s.LossRate() != 0 || s.Acks() != 0 {
		t.Fatal("an unstarted sender reports a delay, a loss rate or ACKs")
	}
	n.start(t)
	n.run(30 * time.Second)
	done := n.tr.SamplesOf(trace.EvFlowDone)
	if delay, ok := s.TransferDelay(); !ok || len(done) != 1 || delay != done[0].At {
		t.Fatalf("TransferDelay = %v, %t; the log's done samples %v (the flow starts at 0)", delay, ok, done)
	}
	if got, want := s.Acks(), len(n.tr.SamplesOf(trace.EvAckRecv)); int(got) != want {
		t.Fatalf("Acks = %d, the log holds %d", got, want)
	}
	sent, rtx := len(n.tr.SamplesOf(trace.EvSend)), len(n.tr.SamplesOf(trace.EvRetransmit))
	if want := float64(rtx) / float64(sent+rtx); rtx == 0 || s.LossRate() != want {
		t.Fatalf("LossRate = %v, the log's %d first sends and %d retransmits give %v", s.LossRate(), sent, rtx, want)
	}
}

// The sender counts its flow without leaving its 288-byte size class.
func TestSenderStaysIn288Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Sender{}); n > 288 {
		t.Fatalf("Sender is %d bytes, want at most 288", n)
	}
}

func TestRetransmitClampsToTransferEnd(t *testing.T) {
	// A retransmission at the last (short) segment must not exceed the
	// transfer length, and one past the end must be a no-op.
	n := newTestNet(t, NewTahoe(), testNetConfig{totalBytes: 2500})
	n.start(t)
	n.run(5 * time.Second)
	if !n.sender.Done() {
		t.Fatal("transfer incomplete")
	}
	before := n.sender.Retransmits()
	n.sender.Retransmit(2000) // 500-byte tail, but transfer is done
	n.sender.Retransmit(9000) // beyond the end entirely
	if n.sender.Retransmits() != before {
		t.Fatal("retransmit after completion emitted segments")
	}
}

func TestRetransmitShortTail(t *testing.T) {
	// Lose the final, sub-MSS segment: its retransmission must carry
	// only the remaining bytes.
	n := newTestNet(t, NewTahoe(), testNetConfig{totalBytes: 5500, window: 4})
	n.loss.Drop(0, 5000)
	n.start(t)
	n.run(30 * time.Second)
	if !n.sender.Done() {
		t.Fatal("transfer incomplete")
	}
	if n.recv.Delivered != 5500 {
		t.Fatalf("delivered %d, want 5500", n.recv.Delivered)
	}
}

func TestStrategyIntrospectionAccessors(t *testing.T) {
	reno := NewReno4BSD()
	if reno.InRecovery() {
		t.Fatal("fresh Reno in recovery")
	}
	nr := NewNewReno()
	if nr.InRecovery() || nr.Recover() != 0 {
		t.Fatal("fresh New-Reno state")
	}
	sack := NewSACK()
	if sack.InRecovery() || len(sack.scoreboard) != 0 {
		t.Fatal("fresh SACK state")
	}
	fack := NewFACK()
	if fack.InRecovery() || fack.fack != 0 {
		t.Fatal("fresh FACK state")
	}
	re := NewRightEdge()
	if re.InRecovery() {
		t.Fatal("fresh right-edge state")
	}
	lk := NewLinKung()
	if lk.InRecovery() {
		t.Fatal("fresh Lin-Kung state")
	}
}

func TestSACKPipeAccessorDuringRecovery(t *testing.T) {
	n := newTestNet(t, NewSACK(), testNetConfig{
		totalBytes: 0, window: 24, ssthresh: 12, sack: true,
	})
	strat, ok := n.sender.strat.(*SACKStrategy)
	if !ok {
		t.Fatal("strategy type")
	}
	dropBurst(n, 40, 2)
	n.start(t)
	// Run until recovery is active.
	for i := 0; i < 500 && !strat.InRecovery(); i++ {
		n.sched.Run(n.sched.Now() + 10*time.Millisecond)
	}
	if !strat.InRecovery() {
		t.Fatal("recovery never entered")
	}
	if strat.pipeFor(n.sender) < 0 {
		t.Fatal("negative pipe")
	}
	if len(strat.scoreboard) == 0 {
		t.Fatal("empty scoreboard during recovery")
	}
}

func TestReceiverSetOutputRedirects(t *testing.T) {
	sink := &ackSink{}
	r, orig := newRecv(false)
	r.SetOutput(sink)
	r.Receive(data(0))
	if len(sink.acks) != 1 {
		t.Fatal("redirected output missed the ACK")
	}
	if len(orig.acks) != 0 {
		t.Fatal("original output still receiving")
	}
}

func TestTimerExpiresAtUnarmed(t *testing.T) {
	sched := sim.NewScheduler(1)
	timer := sched.NewTimer(func() {})
	if timer.ExpiresAt() != 0 {
		t.Fatal("unarmed timer has an expiry")
	}
}

func TestSenderWindowAccessorsViaTopology(t *testing.T) {
	sched := sim.NewScheduler(1)
	d, err := netem.NewDumbbell(sched, netem.PaperDropTailConfig(1))
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	if d.ForwardLink() == nil || d.ReverseLink() == nil {
		t.Fatal("link accessors nil")
	}
	if d.Config().Flows != 1 {
		t.Fatalf("config flows = %d", d.Config().Flows)
	}
	q := d.BottleneckQueue()
	if q.Len() != 0 {
		t.Fatalf("fresh queue len %d", q.Len())
	}
	if q.Discipline() == nil {
		t.Fatal("discipline accessor nil")
	}
}
