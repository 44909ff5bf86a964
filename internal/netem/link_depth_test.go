package netem_test

import (
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/workload"
)

// A dumbbell's links push with eight distinct delays — two rates, two
// packet sizes, with and without the propagation delay — so its packets
// ride at most eight lanes, and a connection has two timers
// (retransmission, whose first expiry is the start, and delayed ACK).
const dumbbellLanes, flowTimers = 8, 2

// TestEventQueueDepthIndependentOfWindow runs one flow over a long-fat
// dumbbell with a 30-packet and a 1000-packet window, and then 200 flows
// of all nine variants over it. In the second run a thousand events are
// pending at once (the pipe is full of packets), and the third has 802
// links, yet the event queue stays within the same bound: one lane head
// per distinct delay the world's links push with, whatever is queued
// behind them and however many links are pushing, plus each
// connection's timers.
func TestEventQueueDepthIndependentOfWindow(t *testing.T) {
	run := func(flows, window int, kinds ...workload.Kind) (s *sim.Scheduler, peakPending int) {
		s = sim.NewScheduler(1)
		d, err := netem.NewDumbbell(s, netem.DumbbellConfig{
			Flows:           flows,
			BottleneckBps:   100e6,
			BottleneckDelay: 50 * time.Millisecond, // ~1250 packets of pipe
			SideBps:         1e9,
			SideDelay:       time.Millisecond,
			ForwardQueue:    netem.Must(netem.NewDropTail(2000)),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < flows; i++ {
			_, err = workload.Install(s, d, i, workload.FlowSpec{
				Kind: kinds[i%len(kinds)], Bytes: 20e6 / int64(flows), Window: window, NoTrace: true,
				StartAt: time.Duration(i) * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		s.SetGuard(func(_ sim.Time, _ uint64, pending int) error {
			peakPending = max(peakPending, pending)
			return nil
		})
		s.Run(30 * time.Second)
		return s, peakPending
	}
	small, smallPending := run(1, 30, workload.RR)
	large, largePending := run(1, 1000, workload.RR)
	many, manyPending := run(200, 30, workload.Kinds()...)
	if smallPending > 2*30+dumbbellLanes+flowTimers || largePending < 1000 || manyPending < 1000 {
		t.Fatalf("peak pending events %d at window 30, %d at window 1000, %d with 200 flows: windows and flows are not what fills the pipe",
			smallPending, largePending, manyPending)
	}
	check := func(name string, s *sim.Scheduler, flows int) {
		if n := s.LaneCount(); n > dumbbellLanes {
			t.Errorf("%s: %d lanes, want <= %d", name, n, dumbbellLanes)
		}
		if hw, bound := s.HeapHighWater(), dumbbellLanes+flowTimers*flows; hw > bound {
			t.Errorf("%s: heap high-water %d, want <= %d (%d lanes + %d timers a flow)",
				name, hw, bound, dumbbellLanes, flowTimers)
		}
	}
	check("window 30", small, 1)
	check("window 1000", large, 1)
	check("200 flows", many, 200)
}
