package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/workload"
)

// SmoothStartConfig parameterizes the slow-start overshoot experiment.
// The paper cites its companion work (Wang, Xin, Reeves & Shin, ISCC
// 2000 — reference [21], "Smooth-start") as an orthogonal optimization
// that reduces the bursty losses slow start inflicts on a small
// gateway buffer. We slow-start into the Table 3 bottleneck with and
// without the refinement and count the damage.
type SmoothStartConfig struct {
	// Variant of the recovery scheme cleaning up afterwards.
	Variant workload.Kind `json:"variant"`
	// TransferPackets is the transfer size in packets.
	TransferPackets int `json:"transferPackets"`
	// InitialSSThresh forces a deep slow start (default 32, far above
	// the ~18-packet pipe capacity).
	InitialSSThresh float64 `json:"initialSSThresh"`
	// Horizon caps each run.
	Horizon sim.Time `json:"horizonNs"`
	// Seed drives the scheduler.
	Seed int64 `json:"seed"`
}

func (c *SmoothStartConfig) fillDefaults() {
	if c.Variant == 0 {
		c.Variant = workload.RR
	}
	if c.TransferPackets <= 0 {
		c.TransferPackets = 200
	}
	if c.InitialSSThresh <= 0 {
		c.InitialSSThresh = 32
	}
	if c.Horizon <= 0 {
		c.Horizon = 120 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// SmoothStartRow is one slow-start flavour's outcome.
type SmoothStartRow struct {
	Label string `json:"label"`
	// SlowStartDrops counts bottleneck drops during the first second —
	// the slow-start overshoot burst.
	SlowStartDrops uint64 `json:"slowStartDrops"`
	// TotalDrops counts bottleneck drops over the whole run.
	TotalDrops uint64 `json:"totalDrops"`
	// TransferDelay is the completion time.
	TransferDelay sim.Time `json:"transferDelayNs"`
	// Finished reports completion within the horizon.
	Finished bool `json:"finished"`
}

// SmoothStartResult compares classic against smooth slow start.
type SmoothStartResult struct {
	Config SmoothStartConfig `json:"config"`
	Rows   []SmoothStartRow  `json:"rows"`
}

// smoothStartLabel names a slow-start flavour in the result rows.
func smoothStartLabel(smooth bool) string {
	if smooth {
		return "smooth-start [21]"
	}
	return "classic slow start"
}

// NewSmoothStartExperiment fills defaults and returns the experiment:
// one job per slow-start flavour, classic first.
func NewSmoothStartExperiment(cfg SmoothStartConfig) Experiment {
	cfg.fillDefaults()
	return &grid[bool, SmoothStartRow]{
		name:  "smoothstart",
		cells: []bool{false, true},
		seeds: func(bool) []int64 { return []int64{cfg.Seed} },
		label: smoothStartLabel,
		run:   cfg.run,
		fold: func(outs [][]SmoothStartRow) (Renderable, error) {
			return &SmoothStartResult{Config: cfg, Rows: firstSeed(outs)}, nil
		},
		Config: cfg,
	}
}

func (cfg SmoothStartConfig) run(w *scenario.World, smooth bool, seed int64) (SmoothStartRow, error) {
	err := w.Rebuild(seed, &scenario.Spec{}) // Table 3 as is
	if err != nil {
		return SmoothStartRow{}, err
	}
	flow, err := w.Install(workload.FlowSpec{
		Kind:            cfg.Variant,
		Bytes:           int64(cfg.TransferPackets) * 1000,
		Window:          64,
		InitialSSThresh: cfg.InitialSSThresh,
		SmoothStart:     smooth,
	})
	if err != nil {
		return SmoothStartRow{}, err
	}

	// Snapshot drops after the slow-start window.
	queue := w.Net.BottleneckQueue()
	var earlyDrops uint64
	if err := w.Sched.NewTimer(func() {
		earlyDrops = queue.Drops
	}).At(w.Sched.Now() + time.Second); err != nil {
		return SmoothStartRow{}, err
	}

	w.Run(cfg.Horizon)

	row := SmoothStartRow{
		Label:          smoothStartLabel(smooth),
		SlowStartDrops: earlyDrops,
		TotalDrops:     queue.Drops,
	}
	row.TransferDelay, row.Finished = flow.Sender.TransferDelay()
	return row, nil
}

// Render returns the comparison as a text table.
func (r *SmoothStartResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Smooth-start [21]: %s slow-starting into the 8-packet Table 3 buffer",
			r.Config.Variant),
		Header: []string{"slow start", "overshoot drops", "total drops", "transfer delay"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Label, fmt.Sprintf("%d", row.SlowStartDrops),
			fmt.Sprintf("%d", row.TotalDrops), delayCell(row.TransferDelay, row.Finished))
	}
	return t.String()
}

// Row returns the outcome for smooth (true) or classic (false).
func (r *SmoothStartResult) Row(smooth bool) (SmoothStartRow, bool) {
	return find(r.Rows, func(row SmoothStartRow) bool { return row.Label == smoothStartLabel(smooth) })
}
