package rrtcp_test

import (
	"fmt"
	"time"

	"rrtcp"
)

// The simplest complete simulation: one RR flow, one engineered burst
// loss, one number out.
func Example() {
	sched := rrtcp.NewScheduler(1)

	loss := rrtcp.NewSeqLoss(sched)
	loss.Drop(0, 60*1000, 61*1000, 62*1000)

	cfg := rrtcp.PaperDropTailConfig(1)
	cfg.Loss = loss
	net, err := rrtcp.NewDumbbell(sched, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	flow, err := rrtcp.InstallFlow(sched, net, 0, rrtcp.FlowSpec{
		Kind:            rrtcp.RR,
		Bytes:           100 * 1000,
		Window:          18, // keep slow start inside the 8-packet buffer
		InitialSSThresh: 9,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	sched.Run(30 * time.Second)

	fmt.Printf("retransmissions: %d, timeouts: %d\n",
		flow.Sender.Retransmits(), flow.Sender.Timeouts())
	// Output:
	// retransmissions: 3, timeouts: 0
}

// Racing two recovery variants on identical loss patterns.
func ExampleInstallFlow() {
	for _, kind := range []rrtcp.Kind{rrtcp.NewReno, rrtcp.RR} {
		sched := rrtcp.NewScheduler(1)
		loss := rrtcp.NewSeqLoss(sched)
		loss.Drop(0, 60*1000, 61*1000, 62*1000, 63*1000)
		cfg := rrtcp.PaperDropTailConfig(1)
		cfg.Loss = loss
		net, _ := rrtcp.NewDumbbell(sched, cfg)
		flow, _ := rrtcp.InstallFlow(sched, net, 0, rrtcp.FlowSpec{
			Kind:            kind,
			Bytes:           120 * 1000,
			Window:          18,
			InitialSSThresh: 9,
		})
		sched.Run(60 * time.Second)
		_, finished := flow.Sender.TransferDelay()
		fmt.Printf("%s finished=%t retransmits=%d\n", kind, finished, flow.Sender.Retransmits())
	}
	// Output:
	// newreno finished=true retransmits=4
	// rr finished=true retransmits=4
}

// The analytic models of the paper's Section 4.
func ExampleSqrtModelWindow() {
	w := rrtcp.SqrtModelWindow(0.01, rrtcp.CAckEveryPacket)
	fmt.Printf("W(p=0.01) = %.2f packets\n", w)
	// Output:
	// W(p=0.01) = 12.25 packets
}

// Variant names round-trip through ParseKind.
func ExampleParseKind() {
	k, _ := rrtcp.ParseKind("robust-recovery")
	fmt.Println(k)
	// Output:
	// rr
}
