package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/workload"
)

// AckLossConfig parameterizes the Section 2.3 robustness scenario: the
// paper argues RR degrades only linearly when ACK losses falsely signal
// further data losses, while New-Reno's ACK-clocked recovery stalls.
// We run the Figure 5 burst-loss transfer with additional uniform ACK
// losses on the reverse path.
type AckLossConfig struct {
	// AckLossRates to sweep.
	AckLossRates []float64 `json:"ackLossRates"`
	// Drops within the data window (as in Figure 5).
	Drops int `json:"drops"`
	// Variants to compare.
	Variants []workload.Kind `json:"variants"`
	// TransferPackets is the flow's limited data, in packets.
	TransferPackets int `json:"transferPackets"`
	// Seeds to average over.
	Seeds []int64 `json:"seeds"`
}

func (c *AckLossConfig) fillDefaults() {
	if len(c.AckLossRates) == 0 {
		c.AckLossRates = []float64{0, 0.05, 0.1, 0.2}
	}
	if c.Drops <= 0 {
		c.Drops = 3
	}
	if len(c.Variants) == 0 {
		c.Variants = []workload.Kind{workload.NewReno, workload.SACK, workload.RR}
	}
	if c.TransferPackets <= 0 {
		c.TransferPackets = 100
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3, 4, 5}
	}
}

// AckLossPoint is one (variant, ACK-loss rate) measurement.
type AckLossPoint struct {
	Variant workload.Kind `json:"variant"`
	// AckLossRate is the reverse-path uniform drop probability.
	AckLossRate float64 `json:"ackLossRate"`
	// MeanDelay is the mean transfer delay across seeds (finished runs).
	MeanDelay sim.Time `json:"meanDelayNs"`
	// MeanTimeouts is the mean coarse-timeout count.
	MeanTimeouts float64 `json:"meanTimeouts"`
	// Completed counts runs that finished within the horizon.
	Completed int `json:"completed"`
	// Runs is the number of seeds attempted.
	Runs int `json:"runs"`
}

// AckLossResult is the full sweep.
type AckLossResult struct {
	Config AckLossConfig  `json:"config"`
	Points []AckLossPoint `json:"points"`
}

// ackLossOut is one (variant, rate, seed) run's raw measurement.
type ackLossOut struct {
	Delay    sim.Time
	Timeouts uint32
	Finished bool
}

// NewAckLossExperiment fills defaults and returns the experiment: one
// job per (variant, ACK-loss rate, seed).
func NewAckLossExperiment(cfg AckLossConfig) Experiment {
	cfg.fillDefaults()
	cells := crossKinds(cfg.Variants, cfg.AckLossRates)
	return &grid[kindAt, ackLossOut]{
		name:  "ackloss",
		cells: cells,
		seeds: func(kindAt) []int64 { return cfg.Seeds },
		label: func(c kindAt) string { return fmt.Sprintf("%v ackloss=%g", c.kind, c.x) },
		run:   cfg.run,
		fold: func(outs [][]ackLossOut) (Renderable, error) {
			res := &AckLossResult{Config: cfg}
			for i, c := range cells {
				pt := AckLossPoint{Variant: c.kind, AckLossRate: c.x, Runs: len(cfg.Seeds)}
				var delaySum sim.Time
				for _, out := range outs[i] {
					if out.Finished {
						pt.Completed++
						delaySum += out.Delay
					}
				}
				if pt.Completed > 0 {
					pt.MeanDelay = delaySum / sim.Time(pt.Completed)
				}
				pt.MeanTimeouts = mean(outs[i], func(o ackLossOut) float64 { return float64(o.Timeouts) })
				res.Points = append(res.Points, pt)
			}
			return res, nil
		},
		Config: cfg,
	}
}

func (cfg AckLossConfig) run(w *scenario.World, c kindAt, seed int64) (ackLossOut, error) {
	lost := make([]int64, cfg.Drops)
	for i := range lost {
		lost[i] = 35 + int64(i)
	}
	err := w.Rebuild(seed, &scenario.Spec{
		Topology: &scenario.TopologySpec{ForwardQueue: &scenario.QueueSpec{Limit: 100}},
		Loss:     &scenario.LossSpec{Drops: []scenario.FlowDrops{{Packets: lost}}},
	})
	if err != nil {
		return ackLossOut{}, err
	}
	flow, err := w.Install(workload.FlowSpec{
		Kind:   c.kind,
		Bytes:  int64(cfg.TransferPackets) * 1000,
		Window: 64,
	})
	if err != nil {
		return ackLossOut{}, err
	}
	// Interpose the ACK dropper between the receiver and its uplink.
	ackLoss := netem.NewUniformLoss(c.x, w.Sched.Rand(), w.Net.ReceiverPort(0))
	ackLoss.DropAcks = true
	flow.Receiver.SetOutput(ackLoss)

	w.Run(120 * time.Second)
	delay, ok := flow.Sender.TransferDelay()
	return ackLossOut{Delay: delay, Timeouts: flow.Sender.Timeouts(), Finished: ok}, nil
}

// Render returns the sweep as a text table.
func (r *AckLossResult) Render() string {
	t := Table{
		Title:  fmt.Sprintf("Section 2.3: ACK-loss robustness (%d data drops in one window)", r.Config.Drops),
		Header: []string{"variant", "ack loss", "mean delay", "mean timeouts", "completed"},
	}
	for _, pt := range r.Points {
		t.AddRow(pt.Variant.String(), fmt.Sprintf("%.0f%%", pt.AckLossRate*100),
			delayCell(pt.MeanDelay, pt.Completed > 0), fmt.Sprintf("%.1f", pt.MeanTimeouts),
			fmt.Sprintf("%d/%d", pt.Completed, pt.Runs))
	}
	return t.String()
}
