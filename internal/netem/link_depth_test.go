package netem_test

import (
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/workload"
)

// TestEventQueueDepthIndependentOfWindow runs one flow over a long-fat
// dumbbell with a 30-packet and a 1000-packet window. In the second run
// a thousand events are pending at once (the pipe is full of packets),
// yet the event queue stays within the same topology bound: each of the
// six links contributes at most its wire lane's head and its
// serialization completion, whatever is queued behind them, plus the
// connection's handful of timers.
func TestEventQueueDepthIndependentOfWindow(t *testing.T) {
	const links = 6 // sender, forward, receiver, ack, reverse, return
	const bound = 2*links + 4
	run := func(window int) (highWater, peakPending int) {
		s := sim.NewScheduler(1)
		d, err := netem.NewDumbbell(s, netem.DumbbellConfig{
			Flows:           1,
			BottleneckBps:   100e6,
			BottleneckDelay: 50 * time.Millisecond, // ~1250 packets of pipe
			SideBps:         1e9,
			SideDelay:       time.Millisecond,
			ForwardQueue:    netem.Must(netem.NewDropTail(2000)),
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = workload.Install(s, d, 0, workload.FlowSpec{
			Kind: workload.RR, Bytes: 20e6, Window: window, NoTrace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.SetProfileHook(1, func(_ sim.Time, _ uint64, pending int) {
			peakPending = max(peakPending, pending)
		})
		s.Run(30 * time.Second)
		return s.HeapHighWater(), peakPending
	}
	small, smallPending := run(30)
	large, largePending := run(1000)
	if smallPending > 2*30+bound || largePending < 1000 {
		t.Fatalf("peak pending events %d at window 30, %d at window 1000: the windows are not what fills the pipe",
			smallPending, largePending)
	}
	if small > bound || large > bound {
		t.Fatalf("heap high-water %d at window 30, %d at window 1000; want both <= %d",
			small, large, bound)
	}
}
