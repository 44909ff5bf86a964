package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/workload"
)

// FairShareConfig parameterizes the §2.3 fair-share experiment. The
// paper asserts: "if a fair share is given to each flow at the routers,
// the loss probability of an ACK packet should be much smaller than
// that of a data packet", because a 40-byte ACK stream consumes far
// less than a 1000-byte data stream. We congest the reverse (ACK) path
// with a constant-bit-rate data flow and compare a FIFO drop-tail
// gateway against a deficit-round-robin fair queue.
type FairShareConfig struct {
	// Variant of the measured TCP flow.
	Variant workload.Kind `json:"variant"`
	// TransferPackets is the forward transfer size in packets.
	TransferPackets int `json:"transferPackets"`
	// CBRFraction is the reverse-path background load as a fraction of
	// the reverse bottleneck rate (default 1.25 — overload, so a FIFO
	// gateway must drop a share of everything including ACKs).
	CBRFraction float64 `json:"cbrFraction"`
	// ReverseBuffer is the reverse gateway buffer in packets.
	ReverseBuffer int `json:"reverseBuffer"`
	// Horizon caps a run whose transfer never completes; every other
	// run ends when the transfer does.
	Horizon sim.Time `json:"horizonNs"`
	// Seed drives the scheduler.
	Seed int64 `json:"seed"`
}

func (c *FairShareConfig) fillDefaults() {
	if c.Variant == 0 {
		c.Variant = workload.RR
	}
	if c.TransferPackets <= 0 {
		c.TransferPackets = 200
	}
	if c.CBRFraction <= 0 {
		c.CBRFraction = 1.25
	}
	if c.ReverseBuffer <= 0 {
		c.ReverseBuffer = 10
	}
	if c.Horizon <= 0 {
		c.Horizon = 300 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// FairShareRow is one gateway discipline's outcome.
type FairShareRow struct {
	Discipline string `json:"discipline"`
	// AckLossRate is the fraction of the ACKs the receiver generated
	// before the transfer completed that never reached the sender.
	AckLossRate float64 `json:"ackLossRate"`
	// TransferDelay is the forward transfer's completion time.
	TransferDelay sim.Time `json:"transferDelayNs"`
	// Timeouts counts the sender's coarse timeouts.
	Timeouts uint32 `json:"timeouts"`
	// Finished reports completion within the horizon.
	Finished bool `json:"finished"`
}

// FairShareResult compares FIFO and DRR on the reverse path.
type FairShareResult struct {
	Config FairShareConfig `json:"config"`
	Rows   []FairShareRow  `json:"rows"`
}

// NewFairShareExperiment fills defaults and returns the experiment: one
// job per reverse-path discipline.
func NewFairShareExperiment(cfg FairShareConfig) Experiment {
	cfg.fillDefaults()
	return &grid[string, FairShareRow]{
		name:  "fairshare",
		cells: []string{"fifo", "drr"},
		seeds: func(string) []int64 { return []int64{cfg.Seed} },
		label: func(disc string) string { return disc },
		run:   cfg.run,
		fold: func(outs [][]FairShareRow) (Renderable, error) {
			return &FairShareResult{Config: cfg, Rows: firstSeed(outs)}, nil
		},
		Config: cfg,
	}
}

// run measures one discipline's run, which ends when the
// transfer completes: nothing reads the CBR source after that.
func (cfg FairShareConfig) run(w *scenario.World, disc string, seed int64) (FairShareRow, error) {
	flow, err := fairShareWorld(w, cfg, disc, seed)
	if err != nil {
		return FairShareRow{}, err
	}
	w.Run(cfg.Horizon)
	return fairShareRead(flow, disc), nil
}

// fairShareWorld rebuilds w as the world of one discipline's run and
// returns its measured flow, whose completion stops the scheduler.
func fairShareWorld(w *scenario.World, cfg FairShareConfig, disc string, seed int64) (*workload.Flow, error) {
	err := w.Rebuild(seed, &scenario.Spec{Topology: &scenario.TopologySpec{
		// Keep the forward path loss-free so the only impairment is the
		// congested ACK path.
		ForwardQueue: &scenario.QueueSpec{Limit: 100},
		ReverseQueue: &scenario.QueueSpec{Type: disc, Limit: cfg.ReverseBuffer, Quantum: 500},
	}})
	if err != nil {
		return nil, err
	}
	flow, err := w.Install(workload.FlowSpec{
		Kind:   cfg.Variant,
		Bytes:  int64(cfg.TransferPackets) * 1000,
		Window: 18,
		OnDone: w.Sched.Stop,
	})
	if err != nil {
		return nil, err
	}

	// Background data saturating the reverse bottleneck. Flow ID 1000
	// has no route at R1's demux, so the packets vanish after consuming
	// reverse bandwidth and buffer — pure cross traffic.
	cbr := netem.NewCBR(w.Sched, w.Net.Pool(), 1000, cfg.CBRFraction*w.Net.Config().BottleneckBps, 1000, w.Net.ReverseLink())
	if err := cbr.Start(0); err != nil {
		return nil, err
	}
	return flow, nil
}

// fairShareRead reads a run's row off its measured flow.
func fairShareRead(flow *workload.Flow, disc string) FairShareRow {
	row := FairShareRow{Discipline: disc, Timeouts: flow.Sender.Timeouts(), AckLossRate: ackLossRate(flow)}
	row.TransferDelay, row.Finished = flow.Sender.TransferDelay()
	return row
}

// Render returns the comparison as a text table.
func (r *FairShareResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("§2.3 fair share: %s transfer with the ACK path saturated by CBR cross-traffic",
			r.Config.Variant),
		Header: []string{"reverse gateway", "ACK loss", "transfer delay", "timeouts"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Discipline, fmt.Sprintf("%.1f%%", row.AckLossRate*100),
			delayCell(row.TransferDelay, row.Finished), fmt.Sprintf("%d", row.Timeouts))
	}
	return t.String()
}

// Row returns the outcome for a discipline name.
func (r *FairShareResult) Row(disc string) (FairShareRow, bool) {
	return find(r.Rows, func(row FairShareRow) bool { return row.Discipline == disc })
}
