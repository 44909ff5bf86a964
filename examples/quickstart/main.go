// Quickstart: run one Robust Recovery (RR) TCP flow over the paper's
// Table 3 dumbbell, lose a burst of three packets from one window, and
// watch RR recover without a timeout.
package main

import (
	"fmt"
	"os"
	"time"

	"rrtcp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	sched := rrtcp.NewScheduler(1)

	// Drop packets 60, 61, and 62 — a burst within one window of data.
	loss := rrtcp.NewSeqLoss(sched)
	loss.Drop(0, 60*1000, 61*1000, 62*1000)

	// The Figure 4 dumbbell with Table 3 parameters: 0.8 Mbps
	// bottleneck, 8-packet drop-tail buffer, 10 Mbps side links.
	cfg := rrtcp.PaperDropTailConfig(1)
	cfg.Loss = loss
	net, err := rrtcp.NewDumbbell(sched, cfg)
	if err != nil {
		return err
	}

	// A 100 KB transfer using the paper's Robust Recovery sender. The
	// receiver is a stock cumulative-ACK TCP receiver: RR needs no
	// receiver changes.
	flow, err := rrtcp.InstallFlow(sched, net, 0, rrtcp.FlowSpec{
		Kind:            rrtcp.RR,
		Bytes:           100 * 1000,
		Window:          18,
		InitialSSThresh: 9,
	})
	if err != nil {
		return err
	}

	sched.Run(30 * time.Second)

	delay, ok := flow.Sender.TransferDelay()
	if !ok {
		return fmt.Errorf("transfer did not complete")
	}
	fmt.Printf("transferred 100 KB with %s in %.3fs (%.1f Kbps)\n",
		flow.Spec.Kind, delay.Seconds(), 100*8/delay.Seconds())
	fmt.Printf("retransmissions: %d, coarse timeouts: %d\n",
		flow.Sender.Retransmits(), flow.Sender.Timeouts())
	return nil
}
