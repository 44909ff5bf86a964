// Customcc tunes RR without writing a Strategy: it passes
// rrtcp.RROptions on the flow spec and races the published RR algorithm
// against its "right-edge" ablation (one new packet per duplicate ACK
// during the retreat sub-phase) on the burst-loss scenario. (A scheme
// of your own implements rrtcp.Strategy and goes in FlowSpec.Strategy.)
package main

import (
	"fmt"
	"os"
	"time"

	"rrtcp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "customcc:", err)
		os.Exit(1)
	}
}

func run() error {
	type entry struct {
		label string
		opts  *rrtcp.RROptions
	}
	entries := []entry{
		{label: "rr (published)", opts: nil},
		{label: "rr right-edge retreat", opts: &rrtcp.RROptions{RetreatDupsPerSegment: 1}},
		{label: "rr without further-loss detection", opts: &rrtcp.RROptions{DisableFurtherLossDetection: true}},
	}
	for _, e := range entries {
		delay, rtx, err := raceBurst(e.opts)
		if err != nil {
			return err
		}
		fmt.Printf("%-36s transfer %.3fs, %d retransmissions\n", e.label, delay.Seconds(), rtx)
	}
	return nil
}

func raceBurst(opts *rrtcp.RROptions) (time.Duration, uint32, error) {
	sched := rrtcp.NewScheduler(1)
	// Lose four packets from one window plus one packet sent during
	// recovery itself — the further-loss case RR was designed for.
	loss := rrtcp.NewSeqLoss(sched)
	for _, pk := range []int64{60, 61, 63, 64, 75} {
		loss.Drop(0, pk*1000)
	}
	cfg := rrtcp.PaperDropTailConfig(1)
	cfg.Loss = loss
	net, err := rrtcp.NewDumbbell(sched, cfg)
	if err != nil {
		return 0, 0, err
	}
	flow, err := rrtcp.InstallFlow(sched, net, 0, rrtcp.FlowSpec{
		Kind:            rrtcp.RR,
		Bytes:           150 * 1000,
		Window:          18,
		InitialSSThresh: 9,
		RROptions:       opts,
	})
	if err != nil {
		return 0, 0, err
	}
	sched.Run(60 * time.Second)
	delay, ok := flow.Sender.TransferDelay()
	if !ok {
		return 0, 0, fmt.Errorf("transfer did not complete")
	}
	return delay, flow.Sender.Retransmits(), nil
}
