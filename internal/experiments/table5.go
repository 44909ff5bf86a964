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

// Table5Config parameterizes the fairness experiment (paper §5,
// Table 5): nineteen staggered background flows with infinite data plus
// one targeted 100 KB transfer starting at 4.8 s share a 25-packet
// drop-tail bottleneck; the targeted flow's transfer delay and loss
// rate are measured across the four {Reno, RR} background/target
// combinations.
type Table5Config struct {
	// Flows is the total connection count (paper: 20).
	Flows int `json:"flows"`
	// TargetBytes is the targeted transfer size (paper: 100 KB).
	TargetBytes int64 `json:"targetBytes"`
	// TargetStart is when the targeted flow begins (paper: 4.8 s).
	TargetStart sim.Time `json:"targetStartNs"`
	// StaggerInterval separates background flow starts (paper: 0.5 s).
	StaggerInterval sim.Time `json:"staggerIntervalNs"`
	// Horizon caps the simulation if the target never finishes.
	Horizon sim.Time `json:"horizonNs"`
	// Seed for the scheduler.
	Seed int64 `json:"seed"`
	// Seeds, when set, are averaged over (drop-tail queueing among 20
	// staggered flows is sensitive to phase effects).
	Seeds []int64 `json:"seeds"`
	// Cases overrides the four default combinations.
	Cases []Table5Case `json:"cases"`
}

// Table5Case names one background/target variant combination.
type Table5Case struct {
	Label      string        `json:"label"`
	Background workload.Kind `json:"background"`
	Target     workload.Kind `json:"target"`
}

func (c *Table5Config) fillDefaults() {
	if c.Flows <= 0 {
		c.Flows = 20
	}
	if c.TargetBytes <= 0 {
		c.TargetBytes = 100 * 1000
	}
	if c.TargetStart <= 0 {
		c.TargetStart = 4800 * time.Millisecond
	}
	if c.StaggerInterval <= 0 {
		c.StaggerInterval = 500 * time.Millisecond
	}
	if c.Horizon <= 0 {
		c.Horizon = 120 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	if len(c.Cases) == 0 {
		c.Cases = []Table5Case{
			{Label: "1: Reno bg / Reno target", Background: workload.Reno, Target: workload.Reno},
			{Label: "2: RR bg / Reno target", Background: workload.RR, Target: workload.Reno},
			{Label: "3: RR bg / RR target", Background: workload.RR, Target: workload.RR},
			{Label: "4: Reno bg / RR target", Background: workload.Reno, Target: workload.RR},
		}
	}
}

// Table5Row is the targeted flow's outcome for one case.
type Table5Row struct {
	Case Table5Case `json:"case"`
	// TransferDelay is the targeted transfer's completion time.
	TransferDelay sim.Time `json:"transferDelayNs"`
	// LossRate is the targeted flow's retransmission fraction.
	LossRate float64 `json:"lossRate"`
	// GoodputBps is the targeted flow's achieved bandwidth.
	GoodputBps float64 `json:"goodputBps"`
	// Finished reports completion within the horizon.
	Finished bool `json:"finished"`
	// DelayCI95Seconds is the 95% confidence half-width of the mean
	// transfer delay across seeds.
	DelayCI95Seconds float64 `json:"delayCI95Seconds,omitempty"`
}

// Table5Result aggregates all cases.
type Table5Result struct {
	Config Table5Config `json:"config"`
	Rows   []Table5Row  `json:"rows"`
}

// NewTable5Experiment fills defaults and returns the experiment: one
// job per (case, seed); the per-seed rows collapse into one row per
// case with a mean transfer delay and its 95% confidence half-width.
func NewTable5Experiment(cfg Table5Config) Experiment {
	cfg.fillDefaults()
	return &grid[Table5Case, Table5Row]{
		name:  "table5",
		cells: cfg.Cases,
		seeds: func(Table5Case) []int64 { return cfg.Seeds },
		label: func(tc Table5Case) string { return tc.Label },
		run:   cfg.run,
		fold: func(outs [][]Table5Row) (Renderable, error) {
			res := &Table5Result{Config: cfg}
			for i, tc := range cfg.Cases {
				agg := Table5Row{Case: tc, LossRate: mean(outs[i], func(r Table5Row) float64 { return r.LossRate })}
				var delays []float64
				for _, row := range outs[i] {
					if row.Finished {
						delays = append(delays, row.TransferDelay.Seconds())
						agg.GoodputBps += row.GoodputBps
					}
				}
				if len(delays) > 0 {
					agg.Finished = true
					summary := stats.Summarize(delays)
					agg.TransferDelay = sim.Time(summary.Mean * float64(time.Second))
					agg.DelayCI95Seconds = summary.CI95
					agg.GoodputBps /= float64(len(delays))
				}
				res.Rows = append(res.Rows, agg)
			}
			return res, nil
		},
		Config: cfg,
	}
}

func (cfg Table5Config) run(w *scenario.World, tc Table5Case, seed int64) (Table5Row, error) {
	err := w.Rebuild(seed, &scenario.Spec{Topology: &scenario.TopologySpec{
		Flows:        cfg.Flows,
		ForwardQueue: &scenario.QueueSpec{Limit: 25}, // paper §5: buffer raised to 25
	}})
	if err != nil {
		return Table5Row{}, err
	}
	for i := 0; i < cfg.Flows-1; i++ {
		// A drop-tail dumbbell is fully deterministic, so averaging over
		// seeds only helps if the seed perturbs something: jitter each
		// background start by up to 100 ms to vary the queue phase.
		jitter := time.Duration(w.Sched.Rand().Int63n(int64(100 * time.Millisecond)))
		if _, err := w.Install(workload.FlowSpec{
			Kind:    tc.Background,
			StartAt: time.Duration(i)*cfg.StaggerInterval + jitter,
			Bytes:   tcp.Infinite,
			Window:  30,
		}); err != nil {
			return Table5Row{}, err
		}
	}
	target, err := w.Install(workload.FlowSpec{
		Kind:    tc.Target,
		StartAt: cfg.TargetStart,
		Bytes:   cfg.TargetBytes,
		Window:  30,
		// Stop the run as soon as the targeted transfer completes; only
		// the targeted flow is measured.
		OnDone: w.Sched.Stop,
	})
	if err != nil {
		return Table5Row{}, err
	}
	w.Run(cfg.Horizon)

	row := Table5Row{Case: tc, LossRate: target.Sender.LossRate()}
	if delay, ok := target.Sender.TransferDelay(); ok {
		row.Finished = true
		row.TransferDelay = delay
		row.GoodputBps = float64(cfg.TargetBytes) * 8 / delay.Seconds()
	}
	return row, nil
}

// Render returns the fairness matrix as a text table.
func (r *Table5Result) Render() string {
	t := Table{
		Title: fmt.Sprintf("Table 5: targeted %d KB transfer starting at %.1fs vs %d background flows (drop-tail/25)",
			r.Config.TargetBytes/1000, r.Config.TargetStart.Seconds(), r.Config.Flows-1),
		Header: []string{"case", "transfer delay", "loss rate", "achieved bw"},
	}
	for _, row := range r.Rows {
		delay, bw := "DNF", "-"
		if row.Finished {
			delay = fmt.Sprintf("%.1fs ±%.1f", row.TransferDelay.Seconds(), row.DelayCI95Seconds)
			bw = kbps(row.GoodputBps)
		}
		t.AddRow(row.Case.Label, delay, fmt.Sprintf("%.1f%%", row.LossRate*100), bw)
	}
	return t.String()
}

// Row returns the outcome of the case with the given background and
// target variants.
func (r *Table5Result) Row(bg, target workload.Kind) (Table5Row, bool) {
	return find(r.Rows, func(row Table5Row) bool {
		return row.Case.Background == bg && row.Case.Target == target
	})
}
