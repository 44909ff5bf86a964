package rrtcp_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"rrtcp"
	"rrtcp/internal/core"
	"rrtcp/internal/model"
)

func TestQuickstartTransfer(t *testing.T) {
	sched := rrtcp.NewScheduler(1)
	net, err := rrtcp.NewDumbbell(sched, rrtcp.PaperDropTailConfig(1))
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	flow, err := rrtcp.InstallFlow(sched, net, 0, rrtcp.FlowSpec{
		Kind:  rrtcp.RR,
		Bytes: 100 * 1000,
	})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	sched.Run(30 * time.Second)
	delay, ok := flow.Sender.TransferDelay()
	if !ok {
		t.Fatal("transfer did not complete")
	}
	if delay <= 0 || delay > 10*time.Second {
		t.Fatalf("implausible transfer delay %v", delay)
	}
}

// TestEndToEndIntegrity runs every variant over a RED gateway with
// organic drops and checks that the application stream arrives intact
// and in order: delivered bytes form a contiguous prefix equal to the
// sender's acknowledged data.
func TestEndToEndIntegrity(t *testing.T) {
	for _, kind := range []rrtcp.Kind{rrtcp.Tahoe, rrtcp.Reno, rrtcp.NewReno, rrtcp.SACK, rrtcp.RR} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			sched := rrtcp.NewScheduler(3)
			cfg := rrtcp.PaperDropTailConfig(2)
			d, err := rrtcp.NewDumbbell(sched, cfg)
			if err != nil {
				t.Fatalf("dumbbell: %v", err)
			}
			flows, err := rrtcp.InstallFlows(sched, d, []rrtcp.FlowSpec{
				{Kind: kind, Bytes: 300 * 1000, Window: 20},
				{Kind: kind, Bytes: rrtcp.Infinite, Window: 20, StartAt: 50 * time.Millisecond},
			})
			if err != nil {
				t.Fatalf("install: %v", err)
			}
			sched.Run(120 * time.Second)
			if !flows[0].Sender.Done() {
				t.Fatal("finite transfer did not complete under contention")
			}
			if flows[0].Receiver.Delivered != 300*1000 {
				t.Fatalf("delivered %d bytes, want 300000", flows[0].Receiver.Delivered)
			}
			if d.BottleneckQueue().Drops == 0 {
				t.Fatal("scenario produced no congestion drops; contention too weak to be meaningful")
			}
		})
	}
}

// TestDeterminism re-runs an identical RED scenario and requires
// byte-identical outcomes: the whole simulator must be seed-driven.
func TestDeterminism(t *testing.T) {
	run := func() (int64, uint32, uint32) {
		sched := rrtcp.NewScheduler(11)
		cfg := rrtcp.PaperDropTailConfig(4)
		cfg.ForwardQueue = rrtcp.Must(rrtcp.NewREDQueue(sched, rrtcp.PaperREDConfig()))
		d, err := rrtcp.NewDumbbell(sched, cfg)
		if err != nil {
			t.Fatalf("dumbbell: %v", err)
		}
		specs := make([]rrtcp.FlowSpec, 4)
		for i := range specs {
			specs[i] = rrtcp.FlowSpec{Kind: rrtcp.RR, Bytes: rrtcp.Infinite, Window: 20,
				StartAt: time.Duration(i) * 100 * time.Millisecond}
		}
		flows, err := rrtcp.InstallFlows(sched, d, specs)
		if err != nil {
			t.Fatalf("install: %v", err)
		}
		sched.Run(10 * time.Second)
		return flows[0].Sender.SndUna(), flows[0].Sender.Retransmits(), flows[0].Sender.Timeouts()
	}
	a1, r1, t1 := run()
	a2, r2, t2 := run()
	if a1 != a2 || r1 != r2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, r1, t1, a2, r2, t2)
	}
}

func TestModelHelpers(t *testing.T) {
	w := rrtcp.SqrtModelWindow(0.01, rrtcp.CAckEveryPacket)
	if w < 12 || w > 12.5 {
		t.Fatalf("SqrtModelWindow(0.01) = %v", w)
	}
	p := model.PadhyeWindow(0.2, 1.0, 0.01, 1)
	if p <= 0 || p > w {
		t.Fatalf("PadhyeWindow = %v, want in (0, %v]", p, w)
	}
}

func TestParseKindFacade(t *testing.T) {
	k, err := rrtcp.ParseKind("rr")
	if err != nil || k != rrtcp.RR {
		t.Fatalf("ParseKind: %v, %v", k, err)
	}
}

func TestStrategyConstructors(t *testing.T) {
	var s rrtcp.Strategy = core.NewRR() // the paper's RR is a facade Strategy
	if s.Name() != "rr" {
		t.Fatal("core.NewRR name")
	}
}

func TestFacadeQueueConstructors(t *testing.T) {
	sched := rrtcp.NewScheduler(1)
	if q, err := rrtcp.NewDropTailQueue(sched, 8); err != nil || q == nil || q.Len() != 0 {
		t.Fatalf("drop-tail constructor: %v", err)
	}
	if q, err := rrtcp.NewREDQueue(sched, rrtcp.PaperREDConfig()); err != nil || q == nil || q.Len() != 0 {
		t.Fatalf("RED constructor: %v", err)
	}
	if _, err := rrtcp.NewDropTailQueue(sched, 0); err == nil {
		t.Fatal("drop-tail accepted zero limit")
	}
}

func TestFacadeLossConstructors(t *testing.T) {
	sched := rrtcp.NewScheduler(1)
	sl := rrtcp.NewSeqLoss(sched)
	sl.Drop(0, 1000)
	ul := rrtcp.NewUniformLoss(sched, 0.5)
	if ul == nil || sl == nil {
		t.Fatal("loss constructors")
	}
}

func TestFacadeKinds(t *testing.T) {
	kinds := rrtcp.Kinds()
	if len(kinds) != 9 {
		t.Fatalf("%d kinds, want 9", len(kinds))
	}
}

func TestFacadeScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rr.json")
	if err := os.WriteFile(path, []byte(`{"duration":"5s","flows":[{"kind":"rr","packets":20,"window":18}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := rrtcp.LoadScenarioFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	rep, err := spec.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rep.Flows) != 1 || !rep.Flows[0].Finished {
		t.Fatalf("report: %+v", rep)
	}
	if _, err := rrtcp.LoadScenarioFile("/nonexistent.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestFacadeExperimentWrappers(t *testing.T) {
	if _, err := rrtcp.RunAckLoss(rrtcp.AckLossConfig{
		AckLossRates: []float64{0}, Seeds: []int64{1},
		Variants: []rrtcp.Kind{rrtcp.RR},
	}); err != nil {
		t.Fatalf("ackloss: %v", err)
	}
	if _, err := rrtcp.RunAblation(3); err != nil {
		t.Fatalf("ablation: %v", err)
	}
	if _, err := rrtcp.RunFairShare(rrtcp.FairShareConfig{TransferPackets: 50}); err != nil {
		t.Fatalf("fairshare: %v", err)
	}
	if _, err := rrtcp.RunTwoWay(rrtcp.TwoWayConfig{Seeds: []int64{1}, TransferPackets: 50}); err != nil {
		t.Fatalf("twoway: %v", err)
	}
	if _, err := rrtcp.RunSmoothStart(rrtcp.SmoothStartConfig{TransferPackets: 60}); err != nil {
		t.Fatalf("smoothstart: %v", err)
	}
	if _, err := rrtcp.RunTable5(rrtcp.Table5Config{
		Seeds: []int64{1},
		Cases: []rrtcp.Table5Case{{Label: "x", Background: rrtcp.Reno, Target: rrtcp.RR}},
	}); err != nil {
		t.Fatalf("table5: %v", err)
	}
	if _, err := rrtcp.RunFigure6(rrtcp.Figure6Config{
		Variants: []rrtcp.Kind{rrtcp.RR}, Seeds: []int64{42}, Flows: 4,
	}); err != nil {
		t.Fatalf("fig6: %v", err)
	}
}

// countingStrategy wraps a Strategy and counts the ACKs it is handed.
type countingStrategy struct {
	rrtcp.Strategy
	acks int
}

func (c *countingStrategy) OnAck(s *rrtcp.Sender, ev rrtcp.AckEvent) {
	c.acks++
	c.Strategy.OnAck(s, ev)
}

// TestFacadeStrategyPlugsIn: a Strategy built through the facade and
// handed over in FlowSpec.Strategy drives the Sender end to end.
func TestFacadeStrategyPlugsIn(t *testing.T) {
	sched := rrtcp.NewScheduler(1)
	d, err := rrtcp.NewDumbbell(sched, rrtcp.PaperDropTailConfig(1))
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	strat := &countingStrategy{Strategy: core.NewRR()}
	flow, err := rrtcp.InstallFlow(sched, d, 0, rrtcp.FlowSpec{
		Bytes: 20 * 1000, Window: 18, Strategy: strat,
	})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	sched.Run(20 * time.Second)
	if !flow.Sender.Done() {
		t.Fatal("flow incomplete")
	}
	if strat.acks == 0 {
		t.Fatal("the wrapped strategy saw no ACKs")
	}
}
