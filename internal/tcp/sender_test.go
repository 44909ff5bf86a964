package tcp

import (
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/trace"
)

var stalePacket = netem.Packet{Flow: 0, Kind: netem.Ack, AckNo: 1000, Size: 40}

func TestSenderValidation(t *testing.T) {
	if _, err := New(nil, nil, nil, Config{}); err == nil {
		t.Fatal("nil dependencies accepted")
	}
}

func TestSenderDoubleStart(t *testing.T) {
	n := newTestNet(t, NewTahoe(), testNetConfig{})
	n.start(t)
	if err := n.sender.Start(0); err == nil {
		t.Fatal("second Start accepted")
	}
}

// TestSenderStartIsNotARetransmissionTimer: the start rides on the
// retransmission timer, but until it fires the sender reads as having no
// timer armed (the invariant watchdog's "stall-no-timer" rule reads it),
// ignores ACKs, and sends nothing; it starts exactly once, at its start
// time, and the start counts as no timeout.
func TestSenderStartIsNotARetransmissionTimer(t *testing.T) {
	n := newTestNet(t, NewNewReno(), testNetConfig{totalBytes: 20 * 1000})
	ring := telemetry.NewRing(0)
	n.sender.cfg.Telemetry = telemetry.NewBus(ring)
	const startAt = 2 * time.Second
	if err := n.sender.Start(startAt); err != nil {
		t.Fatal(err)
	}
	n.run(time.Second)
	n.sender.Receive(&netem.Packet{Kind: netem.Ack, Flow: 0, AckNo: 0, Size: 40})
	n.run(startAt - 1)
	if n.sender.TimerArmed() || n.sender.SndNxt() != 0 || n.sender.Acks() != 0 {
		t.Fatalf("before its start: timer armed %v, snd.nxt %d, %d ACKs taken",
			n.sender.TimerArmed(), n.sender.SndNxt(), n.sender.Acks())
	}
	n.run(startAt)
	if !n.sender.TimerArmed() || n.sender.SndNxt() == 0 {
		t.Fatalf("at its start: timer armed %v, snd.nxt %d", n.sender.TimerArmed(), n.sender.SndNxt())
	}
	n.run(30 * time.Second)
	starts := ring.EventsOf(telemetry.KFlowStart)
	if len(starts) != 1 || starts[0].At != startAt {
		t.Fatalf("flow-start events %+v, want one at %v", starts, time.Duration(startAt))
	}
	if !n.sender.Done() || n.sender.Timeouts() != 0 {
		t.Fatalf("done %v with %d timeouts on a lossless path", n.sender.Done(), n.sender.Timeouts())
	}
	if d, _ := n.sender.TransferDelay(); d >= 30*time.Second-startAt {
		t.Fatalf("transfer delay %v counts the wait for the start", d)
	}
}

func TestSenderCompletesLosslessTransfer(t *testing.T) {
	n := newTestNet(t, NewTahoe(), testNetConfig{totalBytes: 50 * 1000})
	n.start(t)
	n.run(30 * time.Second)
	if !n.sender.Done() {
		t.Fatal("transfer did not complete")
	}
	if n.recv.Delivered != 50*1000 {
		t.Fatalf("delivered %d bytes, want 50000", n.recv.Delivered)
	}
	if n.sender.Retransmits() != 0 {
		t.Fatalf("%d retransmissions on a lossless path", n.sender.Retransmits())
	}
	if n.sender.Timeouts() != 0 {
		t.Fatalf("%d timeouts on a lossless path", n.sender.Timeouts())
	}
}

func TestSenderSlowStartDoublesPerRTT(t *testing.T) {
	n := newTestNet(t, NewTahoe(), testNetConfig{window: 64})
	n.start(t)
	// After ~4 RTTs (20 ms each) of slow start the window is ~16.
	n.run(90 * time.Millisecond)
	if cw := n.sender.Cwnd(); cw < 12 || cw > 20 {
		t.Fatalf("cwnd = %.1f after 4 RTTs of slow start, want ~16", cw)
	}
}

func TestSenderCongestionAvoidanceLinear(t *testing.T) {
	n := newTestNet(t, NewTahoe(), testNetConfig{window: 64, ssthresh: 4})
	n.start(t)
	n.run(100 * time.Millisecond) // ~5 RTTs
	// Slow start to 4 (~2 RTTs), then ~+1/RTT.
	if cw := n.sender.Cwnd(); cw < 5 || cw > 10 {
		t.Fatalf("cwnd = %.1f, want linear growth past ssthresh 4", cw)
	}
}

func TestSenderRespectsReceiverWindow(t *testing.T) {
	n := newTestNet(t, NewTahoe(), testNetConfig{window: 4})
	n.start(t)
	n.run(2 * time.Second)
	if fl := n.sender.FlightPackets(); fl > 4 {
		t.Fatalf("flight %d exceeds the 4-packet advertised window", fl)
	}
	if cw := n.sender.Cwnd(); cw > 4 {
		t.Fatalf("cwnd %.1f exceeds the advertised window cap", cw)
	}
}

func TestSenderTimeoutCollapsesToSlowStart(t *testing.T) {
	n := newTestNet(t, NewTahoe(), testNetConfig{window: 16})
	// Drop a packet AND its dup-ack generators so no fast retransmit
	// can fire: drop everything in flight after packet 5.
	for i := int64(5); i < 40; i++ {
		n.loss.Drop(0, i*1000)
	}
	n.start(t)
	n.run(10 * time.Second)
	if n.sender.Timeouts() == 0 {
		t.Fatal("no timeout despite total loss of the window tail")
	}
	if n.sender.SndUna() < 10*1000 {
		t.Fatalf("sender did not recover after timeout: una=%d", n.sender.SndUna())
	}
}

func TestSenderRTOBacksOffExponentially(t *testing.T) {
	n := newTestNet(t, NewTahoe(), testNetConfig{window: 16})
	// Lose packet 5 and its first several retransmissions: each RTO
	// doubles.
	for i := int64(5); i < 40; i++ {
		n.loss.Drop(0, i*1000)
	}
	n.loss.DropRetransmit(0, 5*1000)
	n.start(t)
	n.run(30 * time.Second)
	timeouts := n.tr.SamplesOf(trace.EvTimeout)
	if len(timeouts) < 2 {
		t.Fatalf("want at least 2 timeouts, got %d", len(timeouts))
	}
	gap1 := timeouts[1].At - timeouts[0].At
	if gap1 < 2*MinRTO-TimerGranularity {
		t.Fatalf("second RTO gap %v did not back off from the first", gap1)
	}
}

func TestSenderKarnNoSampleFromRetransmission(t *testing.T) {
	n := newTestNet(t, NewTahoe(), testNetConfig{window: 16})
	n.start(t)
	n.run(5 * time.Second)
	srttBefore := n.sender.SRTT()
	if srttBefore <= 0 {
		t.Fatal("no RTT samples on a clean path")
	}
	// The loopback RTT is ~21 ms.
	if srttBefore > 0.05 {
		t.Fatalf("srtt = %v, want ~21ms", srttBefore)
	}
}

func TestSenderCompletionCallback(t *testing.T) {
	called := false
	n := newTestNet(t, NewTahoe(), testNetConfig{
		totalBytes: 10 * 1000,
		onDone:     func() { called = true },
	})
	n.start(t)
	n.run(10 * time.Second)
	if !called {
		t.Fatal("OnDone not invoked")
	}
	if !n.sender.Done() {
		t.Fatal("Done() false after completion")
	}
}

func TestSenderIgnoresStaleAcks(t *testing.T) {
	n := newTestNet(t, NewTahoe(), testNetConfig{totalBytes: 20 * 1000})
	n.start(t)
	n.run(10 * time.Second)
	if !n.sender.Done() {
		t.Fatal("transfer incomplete")
	}
	// Feeding an old ACK after completion must be harmless.
	n.sender.Receive(&stalePacket)
}
