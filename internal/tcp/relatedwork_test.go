package tcp

import (
	"testing"
	"time"

	"rrtcp/internal/trace"
)

func TestRightEdgeCompletesBurstLoss(t *testing.T) {
	n := runTransfer(t, NewRightEdge(), 3)
	if !n.sender.Done() {
		t.Fatal("transfer did not complete")
	}
	if n.sender.Timeouts() != 0 {
		t.Fatalf("%d timeouts", n.sender.Timeouts())
	}
}

func TestRightEdgeSendsPerDupAck(t *testing.T) {
	// Compared with New-Reno on an identical scenario, right-edge must
	// inject strictly more new data during recovery.
	re := runTransfer(t, NewRightEdge(), 3)
	nr := runTransfer(t, NewNewReno(), 3)
	reSends := sendsDuringRecovery(re)
	nrSends := sendsDuringRecovery(nr)
	if reSends <= nrSends {
		t.Fatalf("right-edge sent %d during recovery, New-Reno %d; want more", reSends, nrSends)
	}
}

func sendsDuringRecovery(n *testNet) int {
	samples := n.tr.Samples()
	var entry, exit = time.Duration(-1), time.Duration(-1)
	for _, s := range samples {
		if s.Kind == trace.EvRecovery && entry < 0 {
			entry = s.At
		}
		if s.Kind == trace.EvExit && exit < 0 {
			exit = s.At
		}
	}
	if entry < 0 {
		return 0
	}
	if exit < 0 {
		exit = 1 << 62
	}
	count := 0
	for _, s := range samples {
		if s.Kind == trace.EvSend && s.At > entry && s.At < exit {
			count++
		}
	}
	return count
}

func TestLinKungSendsOnFirstTwoDups(t *testing.T) {
	n := newTestNet(t, NewLinKung(), testNetConfig{
		totalBytes: 120 * 1000,
		window:     24,
		ssthresh:   12,
	})
	dropBurst(n, 40, 1)
	n.start(t)
	n.run(60 * time.Second)
	if !n.sender.Done() {
		t.Fatal("transfer did not complete")
	}
	// Count new-data sends in the window between the loss being
	// detectable (first dup ACK) and fast retransmit: Lin-Kung sends
	// two extra packets New-Reno would not.
	rtx := n.tr.SamplesOf(trace.EvRetransmit)
	if len(rtx) == 0 {
		t.Fatal("no fast retransmit")
	}
	dups := n.tr.SamplesOf(trace.EvDupAck)
	if len(dups) < 2 {
		t.Fatal("not enough duplicate ACKs")
	}
	extra := 0
	for _, s := range n.tr.SamplesOf(trace.EvSend) {
		if s.At >= dups[0].At && s.At < rtx[0].At {
			extra++
		}
	}
	if extra != 2 {
		t.Fatalf("%d sends between first dup ACK and fast retransmit, want 2", extra)
	}
}

func TestLinKungRecoveryMatchesNewReno(t *testing.T) {
	n := runTransfer(t, NewLinKung(), 3)
	if !n.sender.Done() {
		t.Fatal("transfer did not complete")
	}
	if n.sender.Timeouts() != 0 {
		t.Fatalf("%d timeouts", n.sender.Timeouts())
	}
	if n.sender.Retransmits() != 3 {
		t.Fatalf("%d retransmits, want 3 (New-Reno style recovery)", n.sender.Retransmits())
	}
}

func TestRelatedWorkNames(t *testing.T) {
	if NewRightEdge().Name() != "rightedge" {
		t.Fatal("rightedge name")
	}
	if NewLinKung().Name() != "linkung" {
		t.Fatal("linkung name")
	}
}

func TestRightEdgeRetransmissionLossTimesOut(t *testing.T) {
	n := newTestNet(t, NewRightEdge(), testNetConfig{
		totalBytes: 120 * 1000,
		window:     24,
		ssthresh:   12,
	})
	dropBurst(n, 40, 1)
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
