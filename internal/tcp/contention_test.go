package tcp_test

import (
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/workload"
)

// A finite transfer that completes under contention leaves its receiver
// with nothing buffered out of order, whichever variant sent it: every
// hole the bottleneck tore was filled and drained.
func TestReceiverDrainsUnderContention(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Tahoe, workload.Reno, workload.NewReno, workload.SACK, workload.RR} {
		t.Run(kind.String(), func(t *testing.T) {
			sched := sim.NewScheduler(3)
			d, err := netem.NewDumbbell(sched, netem.PaperDropTailConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			flows, err := workload.InstallAll(sched, d, []workload.FlowSpec{
				{Kind: kind, Bytes: 300 * 1000, Window: 20},
				{Kind: kind, Bytes: tcp.Infinite, Window: 20, StartAt: 50 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			sched.Run(120 * time.Second)
			if !flows[0].Sender.Done() || d.BottleneckQueue().Drops == 0 {
				t.Fatalf("done %t, %d bottleneck drops: want a finished transfer under congestion", flows[0].Sender.Done(), d.BottleneckQueue().Drops)
			}
			if got := tcp.OutOfOrder(flows[0].Receiver); got != 0 {
				t.Fatalf("%d out-of-order blocks left after completion", got)
			}
		})
	}
}
