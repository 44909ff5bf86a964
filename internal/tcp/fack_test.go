package tcp

import (
	"testing"
	"time"

	"rrtcp/internal/trace"
)

func newFACKNet(t *testing.T, drops int64) *testNet {
	t.Helper()
	n := newTestNet(t, NewFACK(), testNetConfig{
		totalBytes: 120 * 1000,
		window:     24,
		ssthresh:   12,
		sack:       true,
	})
	dropBurst(n, 40, drops)
	return n
}

func TestFACKCompletesBurstLoss(t *testing.T) {
	n := newFACKNet(t, 3)
	n.start(t)
	n.run(60 * time.Second)
	if !n.sender.Done() {
		t.Fatal("transfer did not complete")
	}
	if n.sender.Timeouts() != 0 {
		t.Fatalf("%d timeouts", n.sender.Timeouts())
	}
	if n.sender.Retransmits() != 3 {
		t.Fatalf("%d retransmits, want 3", n.sender.Retransmits())
	}
}

func TestFACKTriggersBeforeThreeDupAcks(t *testing.T) {
	// A 4-packet burst puts fack-una > 3*MSS on the very first SACK
	// block, so FACK must enter recovery with fewer than 3 dup ACKs.
	n := newFACKNet(t, 4)
	n.start(t)
	n.run(60 * time.Second)
	recs := n.tr.SamplesOf(trace.EvRecovery)
	if len(recs) == 0 {
		t.Fatal("no recovery")
	}
	dupsBefore := 0
	for _, s := range n.tr.SamplesOf(trace.EvDupAck) {
		if s.At <= recs[0].At {
			dupsBefore++
		}
	}
	if dupsBefore >= 3 {
		t.Fatalf("recovery needed %d dup ACKs; FACK should trigger on the gap", dupsBefore)
	}
}

func TestFACKRecoversHeavyBurstWithoutTimeout(t *testing.T) {
	// FACK's pipe (snd.nxt - fack + rtx) does not count the lost
	// packets, so it keeps sending where classic SACK stalls.
	n := newFACKNet(t, 9)
	n.start(t)
	n.run(60 * time.Second)
	if n.sender.Timeouts() != 0 {
		t.Fatalf("FACK timed out on a 9-packet burst (%d)", n.sender.Timeouts())
	}
	if !n.sender.Done() {
		t.Fatal("transfer did not complete")
	}
}

func TestFACKSingleRecoveryPerBurst(t *testing.T) {
	n := newFACKNet(t, 5)
	n.start(t)
	n.run(60 * time.Second)
	if got := len(n.tr.SamplesOf(trace.EvRecovery)); got != 1 {
		t.Fatalf("%d window cuts for one burst, want 1", got)
	}
}

func TestFACKRetransmissionLossTimesOut(t *testing.T) {
	n := newFACKNet(t, 1)
	n.loss.DropRetransmit(0, 40*1000)
	n.start(t)
	n.run(60 * time.Second)
	if n.sender.Timeouts() == 0 {
		t.Fatal("lost retransmission must force a timeout")
	}
	if !n.sender.Done() {
		t.Fatal("transfer did not complete")
	}
}

func TestFACKName(t *testing.T) {
	if NewFACK().Name() != "fack" {
		t.Fatal("fack name")
	}
}
