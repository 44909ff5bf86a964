package tcp

import (
	"fmt"
	"testing"
	"time"

	"rrtcp/internal/trace"
)

// dropBurst registers n consecutive packet drops starting at pkt.
func dropBurst(n *testNet, pkt, count int64) {
	for i := int64(0); i < count; i++ {
		n.loss.Drop(0, (pkt+i)*1000)
	}
}

// runTransfer drives a 120-packet transfer with a 3-packet burst loss
// at packet 40 and returns the net.
func runTransfer(t *testing.T, strat Strategy, drops int64) *testNet {
	t.Helper()
	n := newTestNet(t, strat, testNetConfig{
		totalBytes: 120 * 1000,
		window:     24,
		ssthresh:   12,
		sack:       strat.Name() == "sack" || strat.Name() == "sack6675",
	})
	dropBurst(n, 40, drops)
	n.start(t)
	n.run(60 * time.Second)
	return n
}

func TestAllVariantsCompleteAfterBurstLoss(t *testing.T) {
	strategies := []Strategy{NewTahoe(), NewReno4BSD(), NewNewReno(), NewSACK(), NewSACKModern()}
	for _, strat := range strategies {
		strat := strat
		t.Run(strat.Name(), func(t *testing.T) {
			n := runTransfer(t, strat, 3)
			if !n.sender.Done() {
				t.Fatal("transfer did not complete")
			}
			if n.recv.Delivered != 120*1000 {
				t.Fatalf("delivered %d bytes, want 120000", n.recv.Delivered)
			}
		})
	}
}

func TestTahoeFastRetransmitCollapsesWindow(t *testing.T) {
	n := runTransfer(t, NewTahoe(), 1)
	recs := n.tr.SamplesOf(trace.EvRecovery)
	if len(recs) != 1 {
		t.Fatalf("%d fast retransmits, want 1", len(recs))
	}
	// The cwnd sample right after recovery entry must be 1 (Tahoe
	// restarts slow start).
	var sawCollapse bool
	for _, s := range n.tr.SamplesOf(trace.EvCwnd) {
		if s.At >= recs[0].At && s.A == 1 {
			sawCollapse = true
			break
		}
	}
	if !sawCollapse {
		t.Fatal("Tahoe did not collapse cwnd to 1 on fast retransmit")
	}
	if n.sender.Timeouts() != 0 {
		t.Fatalf("%d timeouts for a single loss", n.sender.Timeouts())
	}
}

func TestRenoSingleLossNoTimeout(t *testing.T) {
	n := runTransfer(t, NewReno4BSD(), 1)
	if n.sender.Timeouts() != 0 {
		t.Fatalf("Reno timed out on a single loss (%d timeouts)", n.sender.Timeouts())
	}
	if n.sender.Retransmits() != 1 {
		t.Fatalf("%d retransmits, want exactly the lost packet", n.sender.Retransmits())
	}
}

func TestRenoMultipleLossesStruggle(t *testing.T) {
	// Classic Reno halves repeatedly on a 3-packet burst and typically
	// needs a timeout; New-Reno must not.
	reno := runTransfer(t, NewReno4BSD(), 3)
	newreno := runTransfer(t, NewNewReno(), 3)
	if newreno.sender.Timeouts() != 0 {
		t.Fatalf("New-Reno timed out on a 3-packet burst (%d)", newreno.sender.Timeouts())
	}
	renoDelay, ok := reno.sender.TransferDelay()
	if !ok {
		t.Fatal("Reno transfer incomplete")
	}
	nrDelay, ok := newreno.sender.TransferDelay()
	if !ok {
		t.Fatal("New-Reno transfer incomplete")
	}
	if nrDelay > renoDelay {
		t.Fatalf("New-Reno (%v) slower than Reno (%v) on burst loss", nrDelay, renoDelay)
	}
}

func TestNewRenoRecoversOneLossPerRTT(t *testing.T) {
	n := runTransfer(t, NewNewReno(), 3)
	if n.sender.Retransmits() != 3 {
		t.Fatalf("%d retransmits, want 3", n.sender.Retransmits())
	}
	// Retransmissions are spaced roughly one RTT (~21 ms) apart: the
	// partial-ACK clock.
	rtx := n.tr.SamplesOf(trace.EvRetransmit)
	for i := 1; i < len(rtx); i++ {
		gap := rtx[i].At - rtx[i-1].At
		if gap < 15*time.Millisecond || gap > 100*time.Millisecond {
			t.Fatalf("retransmit gap %v, want ~1 RTT", gap)
		}
	}
	if n.sender.Timeouts() != 0 {
		t.Fatal("New-Reno timed out")
	}
}

func TestNewRenoStaysInRecoveryUntilFullAck(t *testing.T) {
	n := runTransfer(t, NewNewReno(), 3)
	recs := n.tr.SamplesOf(trace.EvRecovery)
	exits := n.tr.SamplesOf(trace.EvExit)
	if len(recs) != 1 || len(exits) != 1 {
		t.Fatalf("recoveries=%d exits=%d, want exactly 1 each (single signal)", len(recs), len(exits))
	}
}

func TestSACKRetransmitsAllHolesInFirstRTT(t *testing.T) {
	n := runTransfer(t, NewSACK(), 3)
	recs := n.tr.SamplesOf(trace.EvRecovery)
	rtx := n.tr.SamplesOf(trace.EvRetransmit)
	if len(rtx) != 3 {
		t.Fatalf("%d retransmits, want 3", len(rtx))
	}
	// All holes go out within ~1 RTT of entering recovery.
	for _, r := range rtx {
		if r.At-recs[0].At > 40*time.Millisecond {
			t.Fatalf("hole retransmitted %v after entry, want within ~1 RTT", r.At-recs[0].At)
		}
	}
	if n.sender.Timeouts() != 0 {
		t.Fatal("SACK timed out on a 3-packet burst")
	}
}

func TestSACKSingleRecoveryPerBurst(t *testing.T) {
	n := runTransfer(t, NewSACK(), 4)
	if got := len(n.tr.SamplesOf(trace.EvRecovery)); got != 1 {
		t.Fatalf("%d window cuts for one burst, want 1", got)
	}
}

func TestSACKModernSurvivesHeavyBurst(t *testing.T) {
	// Lose more than half the window: the classic 1996 pipe stalls into
	// a timeout, the RFC 6675 pipe must not.
	classic := runTransfer(t, NewSACK(), 9)
	modern := runTransfer(t, NewSACKModern(), 9)
	if modern.sender.Timeouts() != 0 {
		t.Fatalf("modern SACK timed out (%d)", modern.sender.Timeouts())
	}
	if classic.sender.Timeouts() == 0 {
		t.Skip("classic SACK recovered this burst; stall not triggered at this window")
	}
}

func TestVariantsWindowHalvedAfterRecovery(t *testing.T) {
	for _, strat := range []Strategy{NewReno4BSD(), NewNewReno(), NewSACK()} {
		strat := strat
		t.Run(strat.Name(), func(t *testing.T) {
			n := runTransfer(t, strat, 1)
			exits := n.tr.SamplesOf(trace.EvExit)
			if len(exits) == 0 {
				t.Fatal("no recovery exit recorded")
			}
			recs := n.tr.SamplesOf(trace.EvRecovery)
			entryCwnd := recs[0].A
			exitCwnd := exits[0].A
			if exitCwnd > entryCwnd*0.75 {
				t.Fatalf("exit cwnd %.1f not roughly half of entry %.1f", exitCwnd, entryCwnd)
			}
		})
	}
}

func TestRetransmissionLossForcesTimeout(t *testing.T) {
	// When the retransmission itself is lost, every variant must fall
	// back to the coarse timeout (the paper notes this for SACK too).
	for _, strat := range []Strategy{NewNewReno(), NewSACK()} {
		strat := strat
		t.Run(strat.Name(), func(t *testing.T) {
			n := newTestNet(t, strat, testNetConfig{
				totalBytes: 120 * 1000,
				window:     24,
				ssthresh:   12,
				sack:       strat.Name() == "sack",
			})
			dropBurst(n, 40, 1)
			n.loss.DropRetransmit(0, 40*1000)
			n.start(t)
			n.run(60 * time.Second)
			if n.sender.Timeouts() == 0 {
				t.Fatal("no timeout despite lost retransmission")
			}
			if !n.sender.Done() {
				t.Fatal("transfer did not complete after timeout recovery")
			}
		})
	}
}

func TestStrategyNames(t *testing.T) {
	names := map[string]Strategy{
		"tahoe":    NewTahoe(),
		"reno":     NewReno4BSD(),
		"newreno":  NewNewReno(),
		"sack":     NewSACK(),
		"sack6675": NewSACKModern(),
	}
	for want, strat := range names {
		if got := strat.Name(); got != want {
			t.Fatalf("Name() = %q, want %q", got, want)
		}
	}
}

// A strategy's Reset makes it what its constructor returns, whatever a
// run left in it: a flow reinstalled with the same variant keeps its
// strategy on the strength of this. A retransmitted-hole set restarts
// from its zero value, so it fills its own buffer again and no other.
func TestStrategyResetMatchesConstructor(t *testing.T) {
	for name, mk := range strategiesUnderTest() {
		t.Run(name, func(t *testing.T) {
			strat := mk()
			fresh := fmt.Sprintf("%+v", mk())
			n := newTestNet(t, strat, testNetConfig{window: 24, ssthresh: 12, sack: needsSACK(name)})
			dropBurst(n, 40, 4)
			n.start(t)
			holes := rtxSet(strat)
			used := func() bool {
				return n.sender.Retransmits() > 0 && fmt.Sprintf("%+v", strat) != fresh && (holes == nil || holes.len() > 0)
			}
			for n.sched.Now() < 10*time.Second && !used() {
				n.sched.Run(n.sched.Now() + 10*time.Millisecond)
			}
			if !used() {
				t.Fatalf("the run left no state to reset: %+v", strat)
			}
			strat.(interface{ Reset() }).Reset()
			if got := fmt.Sprintf("%+v", strat); got != fresh {
				t.Fatalf("after Reset:\n%s\nconstructor:\n%s", got, fresh)
			}
			if holes != nil && holes.seqs != nil {
				t.Fatalf("a reset retransmitted-hole set still has a backing store (%d of %d)", len(holes.seqs), cap(holes.seqs))
			}
		})
	}
}

// rtxSet returns a SACK or FACK strategy's retransmitted-hole set, nil
// for any other strategy.
func rtxSet(s Strategy) *seqSet {
	switch k := s.(type) {
	case *SACKStrategy:
		return &k.rtxDone
	case *FACKStrategy:
		return &k.rtxOut
	}
	return nil
}
