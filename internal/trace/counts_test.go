package trace_test

import (
	"testing"
	"testing/quick"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/trace"
	"rrtcp/internal/workload"
)

// A flow's scalars are counted by its sender; these tests pin them to
// what the flow's recorded trace holds for the same run.

// recordedWorld installs one flow per spec on the paper's drop-tail
// dumbbell (an 8-packet bottleneck buffer) with every trace recording.
func recordedWorld(t *testing.T, specs []workload.FlowSpec) (*sim.Scheduler, []*workload.Flow) {
	t.Helper()
	sched := sim.NewScheduler(1)
	d, err := netem.NewDumbbell(sched, netem.PaperDropTailConfig(len(specs)))
	if err != nil {
		t.Fatal(err)
	}
	flows, err := workload.InstallAll(sched, d, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		f.Trace.Record()
	}
	return sched, flows
}

// lossyFlows runs four 60 KB transfers of one variant over the 8-packet
// buffer, which drops segments of every flow in slow start.
func lossyFlows(t *testing.T, kind workload.Kind) []*workload.Flow {
	t.Helper()
	specs := make([]workload.FlowSpec, 4)
	for i := range specs {
		specs[i] = workload.FlowSpec{Kind: kind, Bytes: 60 * 1000, Window: 30}
	}
	sched, flows := recordedWorld(t, specs)
	sched.Run(60 * time.Second)
	return flows
}

// Every count the sender keeps is the number of samples of its kind the
// recorded trace holds, for every variant.
func TestCountersMatchSamplesOf(t *testing.T) {
	for _, kind := range workload.Kinds() {
		var rtx int
		for i, f := range lossyFlows(t, kind) {
			s, tr := f.Sender, f.Trace
			for k, got := range map[trace.EventKind]uint32{
				trace.EvRetransmit: s.Retransmits(), trace.EvTimeout: s.Timeouts(), trace.EvAckRecv: s.Acks(),
			} {
				if want := len(tr.SamplesOf(k)); got != uint32(want) {
					t.Fatalf("%s flow %d: the sender counts %d of %v, SamplesOf has %d", kind, i, got, k, want)
				}
			}
			if s.Acks() == 0 {
				t.Fatalf("%s flow %d: no ACK counted", kind, i)
			}
			rtx += len(tr.SamplesOf(trace.EvRetransmit))
		}
		if rtx == 0 {
			t.Fatalf("%s: no flow retransmitted; the world is not lossy", kind)
		}
	}
}

// The loss rate is the log's retransmissions over its first sends and
// retransmissions.
func TestLossRate(t *testing.T) {
	lost := false
	for i, f := range lossyFlows(t, workload.Reno) {
		sent := len(f.Trace.SamplesOf(trace.EvSend))
		rtx := len(f.Trace.SamplesOf(trace.EvRetransmit))
		if sent < 60 {
			t.Fatalf("flow %d: %d first sends of a 60-segment transfer", i, sent)
		}
		lost = lost || rtx > 0
		want := float64(rtx) / float64(sent+rtx)
		if got := f.Sender.LossRate(); got != want {
			t.Fatalf("flow %d: loss rate = %v, the log's %d sends and %d retransmits give %v", i, got, sent, rtx, want)
		}
	}
	if !lost {
		t.Fatal("no flow retransmitted; every loss rate is trivially zero")
	}
}

// A sender that has sent nothing has a zero loss rate.
func TestLossRateEmpty(t *testing.T) {
	_, flows := recordedWorld(t, []workload.FlowSpec{{Kind: workload.RR, Bytes: 10 * 1000}})
	if got := flows[0].Sender.LossRate(); got != 0 {
		t.Fatalf("an unstarted sender's loss rate = %v", got)
	}
	if n := len(flows[0].Trace.Samples()); n != 0 {
		t.Fatalf("an unstarted flow logged %d samples", n)
	}
}

// The transfer delay runs from the flow's start to the log's flow-done
// sample, and is not reported before the transfer completes.
func TestTransferDelay(t *testing.T) {
	const start = 2 * time.Second
	sched, flows := recordedWorld(t, []workload.FlowSpec{{Kind: workload.RR, StartAt: start, Bytes: 20 * 1000}})
	s, tr := flows[0].Sender, flows[0].Trace
	sched.Run(start)
	if _, ok := s.TransferDelay(); ok {
		t.Fatal("a delay is reported before the transfer starts")
	}
	sched.Run(30 * time.Second)
	done := tr.SamplesOf(trace.EvFlowDone)
	if len(done) != 1 {
		t.Fatalf("the log holds %d flow-done samples, want 1", len(done))
	}
	delay, ok := s.TransferDelay()
	if !ok || delay != done[0].At-start || delay <= 0 {
		t.Fatalf("delay = %v, %t; the log's done sample is at %v, the flow starts at %v", delay, ok, done[0].At, start)
	}
}

// Property: the bytes a flow has acknowledged, SndUna, equal the
// highest cumulative ACK the log records, whatever the transfer size
// and window.
func TestBytesAckedProperty(t *testing.T) {
	f := func(kb uint8, window uint8) bool {
		bytes := int64(kb%64+1) * 1000
		sched, flows := recordedWorld(t, []workload.FlowSpec{
			{Kind: workload.NewReno, Bytes: bytes, Window: int(window%40) + 2},
			{Kind: workload.SACK, Bytes: tcp.Infinite, Window: 30},
		})
		sched.Run(20 * time.Second)
		for _, fl := range flows {
			var maxAck int64
			for _, s := range fl.Trace.SamplesOf(trace.EvAckRecv) {
				maxAck = max(maxAck, s.Seq)
			}
			if maxAck == 0 || fl.Sender.SndUna() != maxAck {
				t.Logf("flow %d: SndUna = %d, highest logged ACK %d", fl.Trace.Flow, fl.Sender.SndUna(), maxAck)
				return false
			}
		}
		return flows[0].Sender.SndUna() == bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
