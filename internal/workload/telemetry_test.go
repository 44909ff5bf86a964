package workload

import (
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
)

// TestRRPhaseEventSequence replays the canned Figure 5 burst-loss
// pattern through an RR flow and asserts the exact ordered
// phase-transition events the state machine must publish:
// recovery-enter (begin retreat) → retreat-probe → recovery-exit, with
// the hand-off window cwnd = actnum packets at exit (§2.2's "seamless
// congestion recovery").
func TestRRPhaseEventSequence(t *testing.T) {
	sched := sim.NewScheduler(1)
	loss := netem.NewSeqLoss(nil)
	mss := int64(tcp.DefaultMSS)
	// Figure 5's 3-drop pattern: packets 60, 61, 63 of flow 0.
	for _, pk := range []int64{60, 61, 63} {
		loss.Drop(0, pk*mss)
	}
	dcfg := netem.PaperDropTailConfig(1)
	dcfg.Loss = loss
	d, err := netem.NewDumbbell(sched, dcfg)
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}

	ring := telemetry.NewRing(0)
	bus := telemetry.NewBus(ring)
	d.Instrument(bus)
	flow, err := Install(sched, d, 0, FlowSpec{
		Kind:            RR,
		Bytes:           150 * mss,
		Window:          18,
		InitialSSThresh: 9,
		Telemetry:       bus,
	})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	sched.Run(60 * time.Second)

	if _, ok := flow.Sender.TransferDelay(); !ok {
		t.Fatal("transfer did not finish")
	}

	// Collect the RR state machine's phase transitions in order.
	var phases []telemetry.Event
	for _, ev := range ring.Events() {
		if ev.Comp != telemetry.CompRR {
			continue
		}
		switch ev.Kind {
		case telemetry.KRecoveryEnter, telemetry.KRetreatProbe, telemetry.KRecoveryExit:
			phases = append(phases, ev)
		}
	}
	want := []telemetry.Kind{telemetry.KRecoveryEnter, telemetry.KRetreatProbe, telemetry.KRecoveryExit}
	if len(phases) != len(want) {
		t.Fatalf("phase events = %d, want %d: %+v", len(phases), len(want), phases)
	}
	for i, k := range want {
		if phases[i].Kind != k {
			t.Fatalf("phase[%d] = %v, want %v", i, phases[i].Kind, k)
		}
	}
	enter, probe, exit := phases[0], phases[1], phases[2]
	if !(enter.At < probe.At && probe.At < exit.At) {
		t.Fatalf("phase times not ordered: %v %v %v", enter.At, probe.At, exit.At)
	}
	// The retreat→probe flip carries actnum; the exit window must be
	// exactly that many packets (cwnd = actnum × MSS).
	if probe.A <= 0 {
		t.Fatalf("probe actnum = %v, want > 0", probe.A)
	}
	if exit.A != probe.A+1 && exit.A != probe.A {
		// actnum may grow by one per probe RTT before exit; accept the
		// grown value but require the exact hand-off relation to the
		// last actnum sample.
		last := ring.EventsOf(telemetry.KActnum)
		if len(last) == 0 || exit.A != last[len(last)-1].A {
			t.Fatalf("exit cwnd %v does not match actnum (probe %v)", exit.A, probe.A)
		}
	}

	// The engineered drops must be attributed to the loss injector.
	drops := 0
	for _, ev := range ring.Events() {
		if ev.Comp == telemetry.CompLoss && ev.Kind == telemetry.KDrop {
			drops++
		}
	}
	if drops != 3 {
		t.Fatalf("loss-injector drops = %d, want 3", drops)
	}
}

// TestTelemetryMatchesSenderCounters cross-checks the event stream
// against the sender's counters for the same run.
func TestTelemetryMatchesSenderCounters(t *testing.T) {
	sched := sim.NewScheduler(1)
	loss := netem.NewSeqLoss(nil)
	mss := int64(tcp.DefaultMSS)
	loss.Drop(0, 60*mss)
	dcfg := netem.PaperDropTailConfig(1)
	dcfg.Loss = loss
	d, err := netem.NewDumbbell(sched, dcfg)
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	ring := telemetry.NewRing(0)
	flow, err := Install(sched, d, 0, FlowSpec{
		Kind:            NewReno,
		Bytes:           100 * mss,
		Window:          18,
		InitialSSThresh: 9,
		Telemetry:       telemetry.NewBus(ring),
	})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	sched.Run(60 * time.Second)

	snd := flow.Sender
	if got := uint32(len(ring.EventsOf(telemetry.KRetransmit))); got != snd.Retransmits() || got == 0 {
		t.Fatalf("retransmit events %d, sender counter %d", got, snd.Retransmits())
	}
	if got := uint32(len(ring.EventsOf(telemetry.KTimeout))); got != snd.Timeouts() {
		t.Fatalf("timeout events %d, sender counter %d", got, snd.Timeouts())
	}
	if got := uint32(len(ring.EventsOf(telemetry.KAck))); got != snd.Acks() {
		t.Fatalf("ACK events %d, sender counter %d", got, snd.Acks())
	}
	sends := len(ring.EventsOf(telemetry.KSend))
	if sends != 100 {
		t.Fatalf("send events = %d, want 100", sends)
	}
	if done := ring.EventsOf(telemetry.KFlowDone); len(done) != 1 {
		t.Fatalf("done events = %d, want 1", len(done))
	}
}
