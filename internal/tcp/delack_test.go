package tcp

import (
	"testing"
	"time"

	"rrtcp/internal/trace"
)

func newDelAckRecv() (*Receiver, *ackSink) {
	r, sink := newRecv(false)
	r.DelayedAck = true
	return r, sink
}

func TestDelayedAckEverySecondSegment(t *testing.T) {
	r, sink := newDelAckRecv()
	r.Receive(data(0))
	if len(sink.acks) != 0 {
		t.Fatal("first in-order segment acknowledged immediately")
	}
	r.Receive(data(1000))
	if len(sink.acks) != 1 {
		t.Fatalf("%d ACKs after two segments, want 1", len(sink.acks))
	}
	if sink.last().AckNo != 2000 {
		t.Fatalf("ack = %d, want 2000", sink.last().AckNo)
	}
}

func TestDelayedAckTimerFlushes(t *testing.T) {
	r, sink := newDelAckRecv()
	r.Receive(data(0))
	if len(sink.acks) != 0 {
		t.Fatal("premature ACK")
	}
	// Let the 200 ms delayed-ACK timer fire.
	r.sched.RunAll()
	if len(sink.acks) != 1 || sink.last().AckNo != 1000 {
		t.Fatalf("delayed ACK not flushed: %v", sink.acks)
	}
	if r.sched.Now() != 200*time.Millisecond {
		t.Fatalf("flush at %v, want 200ms", r.sched.Now())
	}
}

func TestDelayedAckImmediateDupOnGap(t *testing.T) {
	r, sink := newDelAckRecv()
	r.Receive(data(0))
	r.Receive(data(1000)) // ack 2000 emitted
	r.Receive(data(3000)) // gap: immediate dup ACK
	if len(sink.acks) != 2 {
		t.Fatalf("%d ACKs, want immediate dup on out-of-order arrival", len(sink.acks))
	}
	if sink.last().AckNo != 2000 {
		t.Fatalf("dup ack = %d, want 2000", sink.last().AckNo)
	}
}

func TestDelayedAckImmediateOnHoleFill(t *testing.T) {
	r, sink := newDelAckRecv()
	r.Receive(data(0))
	r.Receive(data(1000))
	r.Receive(data(3000))
	n := len(sink.acks)
	r.Receive(data(2000)) // fills the hole: immediate big ACK
	if len(sink.acks) != n+1 {
		t.Fatal("hole fill not acknowledged immediately")
	}
	if sink.last().AckNo != 4000 {
		t.Fatalf("ack = %d, want 4000", sink.last().AckNo)
	}
}

func TestDelayedAckTransferStillCompletes(t *testing.T) {
	n := newTestNet(t, NewNewReno(), testNetConfig{totalBytes: 80 * 1000, window: 24})
	n.recv.DelayedAck = true
	dropBurst(n, 40, 2)
	n.start(t)
	n.run(60 * time.Second)
	if !n.sender.Done() {
		t.Fatal("transfer with delayed ACKs did not complete")
	}
	if n.recv.Delivered != 80*1000 {
		t.Fatalf("delivered %d", n.recv.Delivered)
	}
}

func TestDelayedAckHalvesAckCount(t *testing.T) {
	fast := newTestNet(t, NewTahoe(), testNetConfig{totalBytes: 60 * 1000})
	fast.start(t)
	fast.run(30 * time.Second)

	slow := newTestNet(t, NewTahoe(), testNetConfig{totalBytes: 60 * 1000})
	slow.recv.DelayedAck = true
	slow.start(t)
	slow.run(30 * time.Second)

	fastN := len(fast.tr.SamplesOf(trace.EvAckRecv))
	slowN := len(slow.tr.SamplesOf(trace.EvAckRecv))
	if slowN >= fastN {
		t.Fatalf("delayed ACKs produced no reduction: %d vs %d ACKs", slowN, fastN)
	}
	if float64(slowN) > 0.7*float64(fastN) {
		t.Fatalf("delayed ACKs only reduced ACK count to %d/%d, want roughly half", slowN, fastN)
	}
}

// TestReceiverCarvesItsTimerOnlyWhenItDelays: a receiver that
// acknowledges every segment — the paper's setup — never makes a
// delayed-ACK timer, losses and hole fills included; one with
// DelayedAck makes it on the first ACK it withholds.
func TestReceiverCarvesItsTimerOnlyWhenItDelays(t *testing.T) {
	n := newTestNet(t, NewNewReno(), testNetConfig{totalBytes: 60 * 1000, sack: true})
	n.loss.Drop(0, 5000, 6000, 7000)
	n.start(t)
	n.run(30 * time.Second)
	if !n.sender.Done() || n.sender.Retransmits() == 0 {
		t.Fatalf("done %v after %d retransmissions: the run never filled a hole", n.sender.Done(), n.sender.Retransmits())
	}
	if n.recv.ackTimer != nil {
		t.Fatal("a receiver without delayed ACKs made a delayed-ACK timer")
	}

	r, _ := newDelAckRecv()
	if r.ackTimer != nil {
		t.Fatal("delayed-ACK timer made before any ACK was withheld")
	}
	r.Receive(data(0))
	if r.ackTimer == nil || !r.ackTimer.Armed() {
		t.Fatal("withheld ACK without an armed delayed-ACK timer")
	}
}
