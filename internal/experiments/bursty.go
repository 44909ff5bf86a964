package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/workload"
)

// BurstyConfig parameterizes the correlated-loss sweep. The paper's
// motivation is that Internet losses arrive in bursts (its [18]); this
// experiment holds the mean loss rate fixed and sweeps the mean burst
// length with a Gilbert-Elliott channel, exposing how each recovery
// scheme degrades as the same number of losses clump together — the
// regime RR was designed for.
type BurstyConfig struct {
	// MeanLossRate is the stationary drop probability (default 0.02).
	MeanLossRate float64 `json:"meanLossRate"`
	// BurstLengths to sweep (mean packets per loss burst).
	BurstLengths []float64 `json:"burstLengths"`
	// Variants to compare.
	Variants []workload.Kind `json:"variants"`
	// Duration of each run.
	Duration sim.Time `json:"durationNs"`
	// Seeds to average over.
	Seeds []int64 `json:"seeds"`
}

func (c *BurstyConfig) fillDefaults() {
	if c.MeanLossRate <= 0 {
		c.MeanLossRate = 0.02
	}
	if len(c.BurstLengths) == 0 {
		c.BurstLengths = []float64{1, 2, 4, 8}
	}
	if len(c.Variants) == 0 {
		c.Variants = []workload.Kind{workload.NewReno, workload.SACK, workload.RR}
	}
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3, 4}
	}
}

// BurstyPoint is one (variant, burst length) measurement.
type BurstyPoint struct {
	Variant workload.Kind `json:"variant"`
	// BurstLength is the configured mean loss-burst length in packets.
	BurstLength float64 `json:"burstLength"`
	// GoodputBps is the mean steady-state goodput.
	GoodputBps float64 `json:"goodputBps"`
	// Timeouts is the mean coarse-timeout count per run.
	Timeouts float64 `json:"timeouts"`
}

// BurstyResult is the full sweep.
type BurstyResult struct {
	Config BurstyConfig  `json:"config"`
	Points []BurstyPoint `json:"points"`
}

// burstyOut is one (variant, burst, seed) run's raw measurement.
type burstyOut struct {
	GoodputBps float64
	Timeouts   uint32
}

// NewBurstyExperiment fills defaults and returns the experiment: one
// job per (variant, burst length, seed), on the Figure 7 fixed-RTT
// topology so goodput differences come only from the loss process and
// the recovery scheme.
func NewBurstyExperiment(cfg BurstyConfig) Experiment {
	cfg.fillDefaults()
	cells := crossKinds(cfg.Variants, cfg.BurstLengths)
	return &grid[kindAt, burstyOut]{
		name:  "bursty",
		cells: cells,
		seeds: func(kindAt) []int64 { return cfg.Seeds },
		label: func(c kindAt) string { return fmt.Sprintf("%v L=%g", c.kind, c.x) },
		run:   cfg.run,
		fold: func(outs [][]burstyOut) (Renderable, error) {
			res := &BurstyResult{Config: cfg}
			for i, c := range cells {
				res.Points = append(res.Points, BurstyPoint{
					Variant:     c.kind,
					BurstLength: c.x,
					GoodputBps:  mean(outs[i], func(o burstyOut) float64 { return o.GoodputBps }),
					Timeouts:    mean(outs[i], func(o burstyOut) float64 { return float64(o.Timeouts) }),
				})
			}
			return res, nil
		},
		Config: cfg,
	}
}

func (cfg BurstyConfig) run(w *scenario.World, c kindAt, seed int64) (burstyOut, error) {
	if c.x < 1 {
		return burstyOut{}, fmt.Errorf("burst length %v: a loss burst is at least one packet", c.x)
	}
	loss := scenario.LossSpec{Rate: cfg.MeanLossRate, BurstLength: c.x}
	err := fixedRTTWorld(w, seed, loss, 200*time.Millisecond, workload.FlowSpec{
		Kind:   c.kind,
		Bytes:  tcp.Infinite,
		Window: 64,
	})
	if err != nil {
		return burstyOut{}, err
	}
	bps := steadyGoodputBps(w, 5*time.Second, cfg.Duration)
	return burstyOut{GoodputBps: bps, Timeouts: w.Flows[0].Sender.Timeouts()}, nil
}

// Render returns the sweep as a table: one row per burst length, one
// goodput column per variant.
func (r *BurstyResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Bursty (Gilbert) loss at fixed mean rate %.1f%%: goodput vs burst length",
			r.Config.MeanLossRate*100),
		Header: []string{"burst len"},
	}
	for _, k := range r.Config.Variants {
		t.Header = append(t.Header, k.String(), k.String()+" TOs")
	}
	for _, burst := range r.Config.BurstLengths {
		row := []string{fmt.Sprintf("%.0f", burst)}
		for _, k := range r.Config.Variants {
			for _, pt := range r.Points {
				if pt.Variant == k && pt.BurstLength == burst {
					row = append(row, kbps(pt.GoodputBps), fmt.Sprintf("%.1f", pt.Timeouts))
				}
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Point returns the measurement for (variant, burst length).
func (r *BurstyResult) Point(kind workload.Kind, burst float64) (BurstyPoint, bool) {
	return find(r.Points, func(pt BurstyPoint) bool { return pt.Variant == kind && pt.BurstLength == burst })
}
