package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rrtcp/internal/core"
	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/trace"
)

// rrNet wires an RR sender to a receiver over 10 ms links with
// deterministic loss injection.
type rrNet struct {
	sched  *sim.Scheduler
	sender *tcp.Sender
	recv   *tcp.Receiver
	loss   *netem.SeqLoss
	strat  *core.RRStrategy
	tr     *trace.FlowTrace
}

func newRRNet(t *testing.T, opts *core.Options, totalPackets int64) *rrNet {
	t.Helper()
	sched := sim.NewScheduler(1)
	tr := trace.New(0, "rr")
	tr.Record() // the behaviour tests read the sample series

	strat := core.NewRR()
	if opts != nil {
		strat = core.NewRRWithOptions(*opts)
	}

	dataLink := netem.Must(netem.NewLink(sched, 10e6, 10*time.Millisecond, netem.Must(netem.NewDropTail(1000)), nil))
	ackLink := netem.Must(netem.NewLink(sched, 10e6, 10*time.Millisecond, netem.Must(netem.NewDropTail(1000)), nil))
	loss := netem.NewSeqLoss(dataLink)
	recv := tcp.NewReceiver(sched, 0, ackLink, tr)
	dataLink.Dst = recv

	total := tcp.Infinite
	if totalPackets > 0 {
		total = totalPackets * 1000
	}
	sender, err := tcp.New(sched, loss, strat, tcp.Config{
		Flow:            0,
		Window:          24,
		InitialSSThresh: 12,
		TotalBytes:      total,
		Trace:           tr,
	})
	if err != nil {
		t.Fatalf("new sender: %v", err)
	}
	ackLink.Dst = sender

	return &rrNet{sched: sched, sender: sender, recv: recv, loss: loss, strat: strat, tr: tr}
}

func (n *rrNet) drop(pkts ...int64) {
	for _, p := range pkts {
		n.loss.Drop(0, p*1000)
	}
}

func (n *rrNet) start(t *testing.T) {
	t.Helper()
	if err := n.sender.Start(0); err != nil {
		t.Fatalf("start: %v", err)
	}
}

func TestRRName(t *testing.T) {
	if core.NewRR().Name() != "rr" {
		t.Fatal("wrong name")
	}
}

func TestRRCompletesCleanTransfer(t *testing.T) {
	n := newRRNet(t, nil, 100)
	n.start(t)
	n.sched.Run(30 * time.Second)
	if !n.sender.Done() {
		t.Fatal("transfer incomplete")
	}
	if n.sender.Retransmits() != 0 || n.sender.Timeouts() != 0 {
		t.Fatalf("clean path produced rtx=%d timeouts=%d", n.sender.Retransmits(), n.sender.Timeouts())
	}
}

func TestRRSingleLossRecoversWithoutProbe(t *testing.T) {
	n := newRRNet(t, nil, 120)
	n.drop(40)
	n.start(t)
	n.sched.Run(60 * time.Second)
	if !n.sender.Done() {
		t.Fatal("transfer incomplete")
	}
	if n.sender.Timeouts() != 0 {
		t.Fatalf("%d timeouts on a single loss", n.sender.Timeouts())
	}
	if n.sender.Retransmits() != 1 {
		t.Fatalf("%d retransmits, want 1", n.sender.Retransmits())
	}
	// Single loss: exit happens straight from retreat, so no probe
	// transition is recorded.
	if got := len(n.tr.SamplesOf(trace.EvPhaseFlip)); got != 0 {
		t.Fatalf("probe sub-phase entered %d times for a single loss", got)
	}
	if got := len(n.tr.SamplesOf(trace.EvExit)); got != 1 {
		t.Fatalf("%d exits, want 1", got)
	}
}

func TestRRBurstLossSingleSignal(t *testing.T) {
	n := newRRNet(t, nil, 120)
	n.drop(40, 41, 42, 43)
	n.start(t)
	n.sched.Run(60 * time.Second)
	if !n.sender.Done() {
		t.Fatal("transfer incomplete")
	}
	if n.sender.Timeouts() != 0 {
		t.Fatalf("%d timeouts on a 4-packet burst", n.sender.Timeouts())
	}
	// One congestion signal: exactly one recovery entry and one exit.
	if got := len(n.tr.SamplesOf(trace.EvRecovery)); got != 1 {
		t.Fatalf("%d recoveries, want 1", got)
	}
	if got := len(n.tr.SamplesOf(trace.EvPhaseFlip)); got != 1 {
		t.Fatalf("%d retreat→probe transitions, want 1", got)
	}
	if n.sender.Retransmits() != 4 {
		t.Fatalf("%d retransmits, want 4", n.sender.Retransmits())
	}
}

func TestRRRecoversOneHolePerRTT(t *testing.T) {
	n := newRRNet(t, nil, 120)
	n.drop(40, 41, 42)
	n.start(t)
	n.sched.Run(60 * time.Second)
	rtx := n.tr.SamplesOf(trace.EvRetransmit)
	if len(rtx) != 3 {
		t.Fatalf("%d retransmits, want 3", len(rtx))
	}
	for i := 1; i < len(rtx); i++ {
		gap := rtx[i].At - rtx[i-1].At
		if gap < 15*time.Millisecond || gap > 60*time.Millisecond {
			t.Fatalf("retransmit gap %v, want ~1 RTT (partial-ACK clock)", gap)
		}
	}
}

func TestRRSendsNewDataDuringRecovery(t *testing.T) {
	n := newRRNet(t, nil, 0) // unbounded
	n.drop(40, 41, 42)
	n.start(t)
	n.sched.Run(10 * time.Second)
	samples := n.tr.Samples()
	var entry, exitAt sim.Time = -1, -1
	for _, s := range samples {
		if s.Kind == trace.EvRecovery && entry < 0 {
			entry = s.At
		}
		if s.Kind == trace.EvExit && exitAt < 0 {
			exitAt = s.At
		}
	}
	if entry < 0 || exitAt < 0 {
		t.Fatal("recovery entry/exit not recorded")
	}
	newSends := 0
	for _, s := range samples {
		if s.Kind == trace.EvSend && s.At > entry && s.At < exitAt {
			newSends++
		}
	}
	if newSends < 5 {
		t.Fatalf("only %d new packets sent during recovery; RR must keep transmitting", newSends)
	}
}

func TestRRCwndUnchangedDuringRecovery(t *testing.T) {
	n := newRRNet(t, nil, 0)
	n.drop(40, 41, 42)
	n.start(t)
	n.sched.Run(10 * time.Second)
	samples := n.tr.Samples()
	var entry, exitAt sim.Time = -1, -1
	var entryCwnd float64
	for _, s := range samples {
		if s.Kind == trace.EvRecovery && entry < 0 {
			entry = s.At
			entryCwnd = s.A
		}
		if s.Kind == trace.EvExit && exitAt < 0 {
			exitAt = s.At
		}
	}
	// No cwnd samples strictly inside recovery (cwnd is out of the
	// control loop until the exit hand-off).
	for _, s := range samples {
		if s.Kind == trace.EvCwnd && s.At > entry && s.At < exitAt {
			t.Fatalf("cwnd changed during recovery at %v (%.1f→%.1f)", s.At, entryCwnd, s.A)
		}
	}
}

func TestRRExitHandsOffActnum(t *testing.T) {
	n := newRRNet(t, nil, 0)
	n.drop(40, 41, 42)
	n.start(t)
	n.sched.Run(10 * time.Second)
	exits := n.tr.SamplesOf(trace.EvExit)
	if len(exits) == 0 {
		t.Fatal("no exit recorded")
	}
	// Exit cwnd equals actnum at exit: a small positive integer well
	// below the pre-loss window.
	cw := exits[0].A
	if cw < 1 || cw > 20 {
		t.Fatalf("exit cwnd %.1f implausible", cw)
	}
	if cw != float64(int(cw)) {
		t.Fatalf("exit cwnd %.3f not an integer packet count", cw)
	}
}

func TestRRFurtherLossDetectedWithoutNewFastRetransmit(t *testing.T) {
	n := newRRNet(t, nil, 0)
	n.drop(40, 41, 42)
	// Lose a packet transmitted during the retreat sub-phase (new data
	// beyond maxseq ≈ 55): a "further" loss inside recovery.
	n.drop(57)
	n.start(t)
	n.sched.Run(10 * time.Second)
	if n.sender.Timeouts() != 0 {
		t.Fatalf("%d timeouts; the further loss must be absorbed in-recovery", n.sender.Timeouts())
	}
	if got := len(n.tr.SamplesOf(trace.EvRecovery)); got != 1 {
		t.Fatalf("%d recovery entries, want 1 (no second fast retransmit)", got)
	}
	if got := len(n.tr.SamplesOf(trace.EvFurther)); got == 0 {
		t.Fatal("further loss not detected")
	}
	if n.strat.FurtherLosses == 0 {
		t.Fatal("FurtherLosses counter not incremented")
	}
}

func TestRRFurtherLossExtendsExit(t *testing.T) {
	n := newRRNet(t, nil, 0)
	n.drop(40, 41, 42, 57)
	n.start(t)
	n.sched.Run(10 * time.Second)
	// The further-lost packet must be retransmitted inside the same
	// recovery phase.
	var sawRtx57 bool
	for _, s := range n.tr.SamplesOf(trace.EvRetransmit) {
		if s.Seq == 57*1000 {
			sawRtx57 = true
		}
	}
	if !sawRtx57 {
		t.Fatal("further-lost packet not retransmitted")
	}
	if got := len(n.tr.SamplesOf(trace.EvExit)); got != 1 {
		t.Fatalf("%d exits, want 1", got)
	}
}

func TestRRRetransmissionLossFallsBackToTimeout(t *testing.T) {
	n := newRRNet(t, nil, 0)
	n.drop(40)
	n.loss.DropRetransmit(0, 40*1000)
	n.start(t)
	n.sched.Run(20 * time.Second)
	if n.sender.Timeouts() == 0 {
		t.Fatal("lost retransmission must force a coarse timeout")
	}
	if n.sender.SndUna() <= 40*1000 {
		t.Fatal("sender did not make progress after the timeout")
	}
}

func TestRRNoSACKReceiverRequired(t *testing.T) {
	n := newRRNet(t, nil, 120)
	if n.recv.SACKEnabled {
		t.Fatal("RR test net should run without SACK")
	}
	n.drop(40, 41, 42, 43, 44)
	n.start(t)
	n.sched.Run(60 * time.Second)
	if !n.sender.Done() {
		t.Fatal("RR did not recover with a plain cumulative-ACK receiver")
	}
}

func TestRRInternalStateResets(t *testing.T) {
	n := newRRNet(t, nil, 120)
	n.drop(40, 41)
	n.start(t)
	n.sched.Run(60 * time.Second)
	if n.strat.InRecovery() {
		t.Fatal("still in recovery after completion")
	}
	if n.strat.Actnum() != 0 || n.strat.Ndup() != 0 {
		t.Fatalf("actnum=%d ndup=%d after exit, want 0", n.strat.Actnum(), n.strat.Ndup())
	}
}

func TestRROptionsRightEdge(t *testing.T) {
	// Right-edge retreat (1 new packet per dup ACK) injects roughly
	// twice the new data of the published retreat.
	published := newRRNet(t, nil, 0)
	published.drop(40, 41, 42)
	published.start(t)
	published.sched.Run(5 * time.Second)

	aggressive := newRRNet(t, &core.Options{RetreatDupsPerSegment: 1}, 0)
	aggressive.drop(40, 41, 42)
	aggressive.start(t)
	aggressive.sched.Run(5 * time.Second)

	if a, p := len(aggressive.tr.SamplesOf(trace.EvSend)), len(published.tr.SamplesOf(trace.EvSend)); a <= p {
		t.Fatalf("right-edge sent %d ≤ published %d; expected more aggressive retreat", a, p)
	}
}

func TestRROptionsDisableFurtherLossDetection(t *testing.T) {
	n := newRRNet(t, &core.Options{DisableFurtherLossDetection: true}, 0)
	n.drop(40, 41, 42, 57)
	n.start(t)
	n.sched.Run(20 * time.Second)
	if got := len(n.tr.SamplesOf(trace.EvFurther)); got != 0 {
		t.Fatalf("further-loss detection fired %d times despite being disabled", got)
	}
	// Without detection the further loss needs another fast retransmit
	// or a timeout.
	extra := len(n.tr.SamplesOf(trace.EvRecovery)) > 1 || n.sender.Timeouts() > 0
	if !extra {
		t.Fatal("further loss recovered without any extra signal; detection seems active")
	}
}

func TestRROptionsExitToSsthresh(t *testing.T) {
	n := newRRNet(t, &core.Options{ExitToSsthresh: true}, 0)
	n.drop(40, 41, 42)
	n.start(t)
	n.sched.Run(10 * time.Second)
	exits := n.tr.SamplesOf(trace.EvExit)
	if len(exits) == 0 {
		t.Fatal("no exit recorded")
	}
	if exits[0].A != n.sender.Ssthresh() && exits[0].A < 2 {
		t.Fatalf("exit cwnd %.1f does not reflect ssthresh hand-off", exits[0].A)
	}
}

func TestRRRecoverAccessor(t *testing.T) {
	n := newRRNet(t, nil, 0)
	n.drop(40, 41)
	n.start(t)
	// Run until just after recovery starts.
	n.sched.Run(1200 * time.Millisecond)
	if n.strat.InRecovery() && n.strat.Recover() <= 40*1000 {
		t.Fatalf("recover = %d, want beyond the lost packet", n.strat.Recover())
	}
}

// TestRRSurvivesRandomLossProperty drives RR through random loss
// patterns — scattered drops, retransmission drops, and ACK drops —
// and requires the transfer to always complete with the stream intact.
func TestRRSurvivesRandomLossProperty(t *testing.T) {
	const transferPkts = 150
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := newRRNet(t, nil, transferPkts)
		drops := rng.Intn(16)
		for i := 0; i < drops; i++ {
			n.loss.Drop(0, int64(rng.Intn(120))*1000)
		}
		if rng.Intn(3) == 0 {
			n.loss.DropRetransmit(0, int64(rng.Intn(120))*1000)
		}
		n.start(t)
		n.sched.Run(600 * time.Second)
		if !n.sender.Done() {
			t.Logf("seed %d: incomplete, una=%d", seed, n.sender.SndUna())
			return false
		}
		if n.recv.Delivered != transferPkts*1000 {
			t.Logf("seed %d: delivered %d", seed, n.recv.Delivered)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRRInvariantsDuringRecoveryProperty checks RR's internal
// invariants at every ACK under random loss: actnum and ndup are
// non-negative, and the exit threshold never regresses.
func TestRRInvariantsDuringRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := newRRNet(t, nil, 150)
		for i := 0; i < rng.Intn(10); i++ {
			n.loss.Drop(0, int64(rng.Intn(120))*1000)
		}
		n.start(t)
		ok := true
		var lastRecover int64
		inRecovery := false
		// Poll invariants at fine granularity while the run progresses.
		for i := 0; i < 6000 && ok && !n.sender.Done(); i++ {
			n.sched.Run(n.sched.Now() + 10*time.Millisecond)
			if n.strat.Actnum() < 0 || n.strat.Ndup() < 0 {
				ok = false
			}
			if n.strat.InRecovery() {
				if inRecovery && n.strat.Recover() < lastRecover {
					ok = false // exit threshold regressed
				}
				inRecovery = true
				lastRecover = n.strat.Recover()
			} else {
				inRecovery = false
				lastRecover = 0
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestRRPaperFigure3Example reproduces the worked example of the
// paper's Figure 3: four packets dropped from one window in the
// pattern 4, 5, 7, 8 — two pairs separated by a survivor. (The paper
// presumes an established window; we shift the pattern by 40 packets
// so the drops land after slow start instead of inside it, where three
// duplicate ACKs cannot exist.) The first loss is recovered in the
// retreat sub-phase; the rest in the probe sub-phase, one per RTT,
// each triggered by a partial ACK.
func TestRRPaperFigure3Example(t *testing.T) {
	n := newRRNet(t, nil, 0)
	n.drop(44, 45, 47, 48)
	n.start(t)
	n.sched.Run(10 * time.Second)

	if n.sender.Timeouts() != 0 {
		t.Fatalf("%d timeouts; the example recovers without any", n.sender.Timeouts())
	}
	rtx := n.tr.SamplesOf(trace.EvRetransmit)
	if len(rtx) != 4 {
		t.Fatalf("%d retransmits, want 4", len(rtx))
	}
	wantOrder := []int64{44000, 45000, 47000, 48000}
	for i, s := range rtx {
		if s.Seq != wantOrder[i] {
			t.Fatalf("retransmission %d at seq %d, want %d", i, s.Seq, wantOrder[i])
		}
	}
	// Packet 4 goes out with the fast retransmit (recovery entry);
	// 5, 7, 8 follow one per probe RTT.
	recs := n.tr.SamplesOf(trace.EvRecovery)
	if len(recs) != 1 {
		t.Fatalf("%d recovery entries, want 1 (single congestion signal)", len(recs))
	}
	if rtx[0].At != recs[0].At {
		t.Fatal("first retransmission not at recovery entry")
	}
	for i := 2; i < 4; i++ {
		gap := rtx[i].At - rtx[i-1].At
		if gap < 15*time.Millisecond || gap > 80*time.Millisecond {
			t.Fatalf("probe retransmissions %d→%d spaced %v, want ~1 RTT", i-1, i, gap)
		}
	}
	// And the connection keeps transmitting new data throughout.
	exits := n.tr.SamplesOf(trace.EvExit)
	if len(exits) != 1 {
		t.Fatalf("%d exits, want 1", len(exits))
	}
	newSends := 0
	for _, s := range n.tr.SamplesOf(trace.EvSend) {
		if s.At > recs[0].At && s.At < exits[0].At {
			newSends++
		}
	}
	if newSends == 0 {
		t.Fatal("no new data during the Figure 3 recovery")
	}
}

// Reset makes an RR strategy the one NewRRWithOptions returns for the
// options it was built with, whatever phase a run left it in.
func TestRRResetMatchesConstructor(t *testing.T) {
	for _, opts := range []*core.Options{nil, {RetreatDupsPerSegment: 1, HalveOnFurtherLoss: true}} {
		n := newRRNet(t, opts, 0)
		fresh := fmt.Sprintf("%+v", n.strat)
		n.drop(40, 41, 42)
		n.start(t)
		for n.sched.Now() < 10*time.Second && !n.strat.InRecovery() {
			n.sched.Run(n.sched.Now() + 10*time.Millisecond)
		}
		if !n.strat.InRecovery() {
			t.Fatalf("options %+v: never entered recovery", opts)
		}
		n.strat.Reset()
		if got := fmt.Sprintf("%+v", n.strat); got != fresh {
			t.Fatalf("options %+v: after Reset\n%s\nconstructor:\n%s", opts, got, fresh)
		}
	}
}
