package experiments

import (
	"fmt"
	"math"
	"testing"

	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/workload"
)

// onToHorizon carries on a run that stopped when flow completed to the
// horizon. Stop only ends the Run call in flight, so the second Run
// fires exactly the events a run that never stopped would have fired.
// It returns the receiver's segment count at completion.
func onToHorizon(t *testing.T, w *scenario.World, flow *workload.Flow, horizon sim.Time) uint64 {
	t.Helper()
	w.Run(horizon)
	atDone := flow.Receiver.Segments
	w.Run(horizon)
	if now := w.Sched.Now(); now != horizon {
		t.Fatalf("run ended at %v, want the horizon %v", now, horizon)
	}
	return atDone
}

// TestStopAtCompletionMovesNoResult is a metamorphic check of twoway's
// and fairshare's OnDone stop: each run, ended when its measured
// transfer completes, must read exactly what the same world read at
// Horizon reads — with ACK loss taken from the receiver's count at
// completion, which is what ackLossRate measures.
func TestStopAtCompletionMovesNoResult(t *testing.T) {
	twoWay := []TwoWayConfig{{}, {ReverseFlows: 1, ReverseBuffer: 4}}
	for i := range twoWay {
		twoWay[i].fillDefaults()
	}
	for _, kind := range workload.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 2, 3, 4} {
				for _, cfg := range twoWay {
					name := fmt.Sprintf("twoway %d/%d seed %d", cfg.ReverseFlows, cfg.ReverseBuffer, seed)
					stopped, err := cfg.run(&scenario.World{}, kind, seed)
					if err != nil {
						t.Fatal(err)
					}
					w := &scenario.World{}
					fwd, err := twoWayWorld(w, cfg, kind, seed)
					if err != nil {
						t.Fatal(err)
					}
					fwd.Receiver.Segments = onToHorizon(t, w, fwd, cfg.Horizon)
					if horizon := twoWayRead(fwd); horizon != stopped {
						t.Errorf("%s: stopped at completion %+v, to horizon %+v", name, stopped, horizon)
					}
				}
				for _, disc := range []string{"fifo", "drr"} {
					cfg := FairShareConfig{Variant: kind, Seed: seed}
					cfg.fillDefaults()
					name := fmt.Sprintf("fairshare %s seed %d", disc, seed)
					stopped, err := cfg.run(&scenario.World{}, disc, seed)
					if err != nil {
						t.Fatal(err)
					}
					w := &scenario.World{}
					flow, err := fairShareWorld(w, cfg, disc, seed)
					if err != nil {
						t.Fatal(err)
					}
					flow.Receiver.Segments = onToHorizon(t, w, flow, cfg.Horizon)
					if horizon := fairShareRead(flow, disc); horizon != stopped {
						t.Errorf("%s: stopped at completion %+v, to horizon %+v", name, stopped, horizon)
					}
				}
			}
		})
	}
}

// TestAckLossOverTheTransfer pins the two twoway runs where ACK loss
// read at Horizon was wrong: the receiver processed segments after the
// transfer completed (go-back-N resends, spurious retransmissions still
// in flight) whose ACKs the done sender discarded, so they counted as
// lost. The reported value is the one at completion.
func TestAckLossOverTheTransfer(t *testing.T) {
	cases := []struct {
		kind              workload.Kind
		cfg               TwoWayConfig
		seed              int64
		atDone, toHorizon float64 // ACK loss, rounded to 0.01 %
	}{
		{workload.Tahoe, TwoWayConfig{ReverseFlows: 1, ReverseBuffer: 4}, 1, 0.0050, 0.0147},
		{workload.RR, TwoWayConfig{ReverseFlows: 2, ReverseBuffer: 16}, 7, 0, 0.0192},
	}
	round := func(x float64) float64 { return math.Round(x*1e4) / 1e4 }
	for _, c := range cases {
		c.cfg.fillDefaults()
		name := fmt.Sprintf("%v %d/%d seed %d", c.kind, c.cfg.ReverseFlows, c.cfg.ReverseBuffer, c.seed)
		got, err := c.cfg.run(&scenario.World{}, c.kind, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		w := &scenario.World{}
		fwd, err := twoWayWorld(w, c.cfg, c.kind, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		atDone := onToHorizon(t, w, fwd, c.cfg.Horizon)
		if fwd.Receiver.Segments <= atDone {
			t.Errorf("%s: no segment processed after completion (%d at completion, %d at horizon)",
				name, atDone, fwd.Receiver.Segments)
		}
		if loss := round(ackLossRate(fwd)); loss != c.toHorizon {
			t.Errorf("%s: ACK loss read at horizon %.4f, want %.4f", name, loss, c.toHorizon)
		}
		fwd.Receiver.Segments = atDone
		if lossAtDone := ackLossRate(fwd); got.AckLoss != lossAtDone || round(got.AckLoss) != c.atDone {
			t.Errorf("%s: reported ACK loss %.4f, want the value at completion %.4f (pinned %.4f)",
				name, got.AckLoss, lossAtDone, c.atDone)
		}
	}
}
