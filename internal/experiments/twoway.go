package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/stats"
	"rrtcp/internal/tcp"
	"rrtcp/internal/workload"
)

// TwoWayConfig parameterizes the two-way-traffic extension experiment.
// The paper's §2.3 leans on the observation (Zhang, Shenker & Clark —
// its [22]) that two-way traffic through drop-tail gateways interleaves
// data with ACKs, compressing and dropping ACK runs; a recovery scheme
// that relies on the duplicate-ACK clock must survive that. We run
// forward transfers of each variant while reverse-direction TCP flows
// congest the ACK path with real data.
type TwoWayConfig struct {
	// Variants of the measured forward flow.
	Variants []workload.Kind
	// ReverseFlows is the number of opposing data flows.
	ReverseFlows int
	// TransferPackets is the forward transfer size in packets.
	TransferPackets int
	// ReverseBuffer is the shared R2→R1 buffer in packets.
	ReverseBuffer int
	// Horizon caps a run whose transfer never completes; every other
	// run ends when the forward transfer does.
	Horizon sim.Time
	// Seeds to average over (start phases are jittered per seed).
	Seeds []int64
}

func (c *TwoWayConfig) fillDefaults() {
	if len(c.Variants) == 0 {
		c.Variants = []workload.Kind{workload.NewReno, workload.SACK, workload.RR}
	}
	if c.ReverseFlows <= 0 {
		c.ReverseFlows = 2
	}
	if c.TransferPackets <= 0 {
		c.TransferPackets = 200
	}
	if c.ReverseBuffer <= 0 {
		c.ReverseBuffer = 8
	}
	if c.Horizon <= 0 {
		c.Horizon = 300 * time.Second
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3, 4, 5}
	}
}

// TwoWayRow is one variant's outcome under two-way traffic.
type TwoWayRow struct {
	Variant workload.Kind `json:"variant"`
	// MeanDelay is the forward transfer's mean completion time.
	MeanDelay sim.Time `json:"meanDelayNs"`
	// MeanAckLoss is the mean fraction of the ACKs generated before
	// the transfer completed that were lost on the shared reverse path.
	MeanAckLoss float64 `json:"meanAckLoss"`
	// MeanTimeouts is the forward flow's mean coarse-timeout count.
	MeanTimeouts float64 `json:"meanTimeouts"`
	// Completed counts finished runs out of Runs.
	Completed int `json:"completed"`
	Runs      int `json:"runs"`
	// DelayCI95Seconds is the 95% confidence half-width of MeanDelay.
	DelayCI95Seconds float64 `json:"delayCI95Seconds,omitempty"`
}

// TwoWayResult aggregates the comparison.
type TwoWayResult struct {
	Config TwoWayConfig `json:"config"`
	Rows   []TwoWayRow  `json:"rows"`
}

// twoWayOut is one (variant, seed) run's raw measurement.
type twoWayOut struct {
	Delay    sim.Time
	AckLoss  float64
	Timeouts uint32
	Finished bool
}

// NewTwoWayExperiment fills defaults and returns the experiment: one
// job per (variant, seed).
func NewTwoWayExperiment(cfg TwoWayConfig) Experiment {
	cfg.fillDefaults()
	return &grid[workload.Kind, twoWayOut]{
		name:  "twoway",
		cells: cfg.Variants,
		seeds: func(workload.Kind) []int64 { return cfg.Seeds },
		label: workload.Kind.String,
		run:   cfg.run,
		fold: func(outs [][]twoWayOut) (Renderable, error) {
			res := &TwoWayResult{Config: cfg}
			for i, kind := range cfg.Variants {
				row := TwoWayRow{Variant: kind, Runs: len(cfg.Seeds)}
				var delays []float64
				for _, out := range outs[i] {
					if out.Finished {
						row.Completed++
						delays = append(delays, out.Delay.Seconds())
					}
				}
				if row.Completed > 0 {
					summary := stats.Summarize(delays)
					row.MeanDelay = sim.Time(summary.Mean * float64(time.Second))
					row.DelayCI95Seconds = summary.CI95
				}
				row.MeanAckLoss = mean(outs[i], func(o twoWayOut) float64 { return o.AckLoss })
				row.MeanTimeouts = mean(outs[i], func(o twoWayOut) float64 { return float64(o.Timeouts) })
				res.Rows = append(res.Rows, row)
			}
			return res, nil
		},
		Config: cfg,
	}
}

// run measures one (variant, seed) run. The run ends when the
// forward transfer completes: nothing reads the reverse flows after
// that, and ackLossRate counts only the ACKs generated before it.
func (cfg TwoWayConfig) run(w *scenario.World, kind workload.Kind, seed int64) (twoWayOut, error) {
	fwd, err := twoWayWorld(w, cfg, kind, seed)
	if err != nil {
		return twoWayOut{}, err
	}
	w.Run(cfg.Horizon)
	return twoWayRead(fwd), nil
}

// twoWayWorld rebuilds w as the world of one (variant, seed) run and
// returns its forward flow, whose completion stops the scheduler.
func twoWayWorld(w *scenario.World, cfg TwoWayConfig, kind workload.Kind, seed int64) (*workload.Flow, error) {
	err := w.Rebuild(seed, &scenario.Spec{Topology: &scenario.TopologySpec{
		Flows: cfg.ReverseFlows + 1,
		// Both directions congested: Table 3's 8-packet buffer forward, a
		// small shared buffer on the reverse path so ACKs compete with the
		// opposing data for real.
		ReverseQueue: &scenario.QueueSpec{Limit: cfg.ReverseBuffer},
	}})
	if err != nil {
		return nil, err
	}
	fwd, err := w.Install(workload.FlowSpec{
		Kind:   kind,
		Bytes:  int64(cfg.TransferPackets) * 1000,
		Window: 18,
		OnDone: w.Sched.Stop,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.ReverseFlows; i++ {
		jitter := time.Duration(w.Sched.Rand().Int63n(int64(200 * time.Millisecond)))
		if _, err := w.InstallReverse(workload.FlowSpec{
			Kind:    workload.Reno,
			Bytes:   tcp.Infinite,
			Window:  18,
			StartAt: jitter,
		}); err != nil {
			return nil, err
		}
	}
	return fwd, nil
}

// twoWayRead reads a run's measurement off its forward flow.
func twoWayRead(fwd *workload.Flow) twoWayOut {
	out := twoWayOut{Timeouts: fwd.Sender.Timeouts(), AckLoss: ackLossRate(fwd)}
	out.Delay, out.Finished = fwd.Sender.TransferDelay()
	return out
}

// Render returns the comparison as a text table.
func (r *TwoWayResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Two-way traffic: forward transfer vs %d reverse TCP flows (drop-tail both ways)",
			r.Config.ReverseFlows),
		Header: []string{"variant", "mean delay", "mean ACK loss", "mean timeouts", "completed"},
	}
	for _, row := range r.Rows {
		delay := "DNF"
		if row.Completed > 0 {
			delay = fmt.Sprintf("%.3fs ±%.2f", row.MeanDelay.Seconds(), row.DelayCI95Seconds)
		}
		t.AddRow(row.Variant.String(), delay,
			fmt.Sprintf("%.1f%%", row.MeanAckLoss*100),
			fmt.Sprintf("%.1f", row.MeanTimeouts),
			fmt.Sprintf("%d/%d", row.Completed, row.Runs))
	}
	return t.String()
}

// Row returns the outcome for a variant.
func (r *TwoWayResult) Row(kind workload.Kind) (TwoWayRow, bool) {
	return find(r.Rows, func(row TwoWayRow) bool { return row.Variant == kind })
}
