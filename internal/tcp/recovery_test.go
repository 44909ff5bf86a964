package tcp

import (
	"testing"
	"time"

	"rrtcp/internal/telemetry"
	"rrtcp/internal/trace"
)

// skeletonStrategies are the baselines that embed Recovery.
func skeletonStrategies() []Strategy {
	return []Strategy{NewReno4BSD(), NewNewReno(), NewLinKung(), NewRightEdge(), NewSACK(), NewSACKModern(), NewFACK()}
}

// runUntil advances the simulation a millisecond at a time until cond
// holds (or a minute passes) and reports whether it does.
func runUntil(n *testNet, cond func() bool) bool {
	for at := n.sched.Now(); !cond() && at < time.Minute; at += time.Millisecond {
		n.run(at)
	}
	return cond()
}

// TestRecoveryEntryAndExitAgreeAcrossBaselines: one loss from the same
// window must be announced identically by every baseline that embeds
// the skeleton — same hole, same window and pre-halving ssthresh on
// recovery-enter, same halved ssthresh (half the flight), and an exit
// to exactly that ssthresh with the duplicate count cleared. What differs between them
// is what happens in between.
func TestRecoveryEntryAndExitAgreeAcrossBaselines(t *testing.T) {
	var first *telemetry.Event
	var firstHalved float64
	for _, strat := range skeletonStrategies() {
		n := newTestNet(t, strat, testNetConfig{
			window:   24,
			ssthresh: 12,
			sack:     true, // harmless for the non-SACK senders
		})
		dropBurst(n, 40, 1)
		n.start(t)
		in := strat.(interface{ InRecovery() bool })
		if !runUntil(n, in.InRecovery) {
			t.Fatalf("%s: never entered recovery", strat.Name())
		}
		halved := n.sender.Ssthresh()
		if !runUntil(n, func() bool { return !in.InRecovery() }) {
			t.Fatalf("%s: never left recovery", strat.Name())
		}
		enters, exits := n.tr.SamplesOf(trace.EvRecovery), n.tr.SamplesOf(trace.EvExit)
		if len(enters) != 1 || len(exits) != 1 || n.sender.Timeouts() != 0 {
			t.Fatalf("%s: %d enters, %d exits, %d timeouts; want 1, 1, 0", strat.Name(), len(enters), len(exits), n.sender.Timeouts())
		}
		enter, exit := enters[0], exits[0]
		if enter.Seq != 40*1000 || enter.B <= halved {
			t.Errorf("%s: recovery-enter seq %d ssthresh %v (halved to %v); want the hole and the pre-halving threshold", strat.Name(), enter.Seq, enter.B, halved)
		}
		if exit.A != halved || n.sender.DupAcks() != 0 {
			t.Errorf("%s: exit cwnd %v, ssthresh %v, dupacks %d", strat.Name(), exit.A, halved, n.sender.DupAcks())
		}
		if exit.Seq < strat.(interface{ Recover() int64 }).Recover() {
			t.Errorf("%s: left recovery at %d, below the exit point", strat.Name(), exit.Seq)
		}
		// Lin-Kung's two early packets are in flight at entry: they move
		// the clock and add one to the halved threshold, nothing else.
		enter.At = 0
		if strat.Name() == "linkung" {
			halved--
		}
		if first == nil {
			first, firstHalved = &enter, halved
		} else if enter != *first || halved != firstHalved {
			t.Errorf("%s enters as %+v halving to %v; %s as %+v halving to %v",
				strat.Name(), enter, halved, skeletonStrategies()[0].Name(), *first, firstHalved)
		}
	}
}

func TestHalveSsthreshCountsAtLeastTwoInFlight(t *testing.T) {
	n := newTestNet(t, NewReno4BSD(), testNetConfig{window: 24, ssthresh: 12})
	if flight := n.sender.HalveSsthresh(); flight != 2 || n.sender.Ssthresh() != 2 {
		t.Fatalf("idle sender: flight %d, ssthresh %v; want 2 and the floor of 2", flight, n.sender.Ssthresh())
	}
	n.start(t)
	runUntil(n, func() bool { return n.sender.FlightPackets() >= 10 })
	want := n.sender.FlightPackets()
	if flight := n.sender.HalveSsthresh(); flight != want || n.sender.Ssthresh() != float64(want)/2 {
		t.Fatalf("flight %d, ssthresh %v; want %d and half of it", flight, n.sender.Ssthresh(), want)
	}
}

// TestOpenAckReportsTheThirdDuplicateOnce: the trigger is the
// DupThresh-th duplicate exactly — not the fourth, and not a new ACK.
func TestOpenAckReportsTheThirdDuplicateOnce(t *testing.T) {
	n := newTestNet(t, NewReno4BSD(), testNetConfig{window: 24, ssthresh: 12})
	n.start(t)
	runUntil(n, func() bool { return n.sender.SndUna() > 0 })
	dup := AckEvent{AckNo: n.sender.SndUna(), IsDup: true}
	for i := 1; i <= 5; i++ {
		if got := n.sender.OpenAck(dup); got != (i == DupThresh) {
			t.Fatalf("duplicate %d: OpenAck = %v", i, got)
		}
	}
	cwnd := n.sender.Cwnd()
	if n.sender.OpenAck(AckEvent{AckNo: n.sender.SndUna() + 1000}) {
		t.Fatal("a new ACK reported as the trigger")
	}
	if n.sender.DupAcks() != 0 || n.sender.Cwnd() <= cwnd {
		t.Fatalf("new ACK: dupacks %d, cwnd %v → %v; want the count cleared and the window grown", n.sender.DupAcks(), cwnd, n.sender.Cwnd())
	}
}
