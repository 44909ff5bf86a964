package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/model"
	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/workload"
)

// Figure7Config parameterizes the square-root-model fitness experiment
// (paper §4, Figure 7): a single long-lived flow suffers uniform random
// losses at gateway R1 while MSS and RTT are held fixed, and the
// measured window BW·RTT/MSS is compared against the Mathis bound
// C/sqrt(p).
type Figure7Config struct {
	// LossRates to sweep (paper: 0.001 … 0.1).
	LossRates []float64 `json:"lossRates"`
	// Variants to compare (paper: SACK and RR).
	Variants []workload.Kind `json:"variants"`
	// Duration of each run (paper: 100 s).
	Duration sim.Time `json:"durationNs"`
	// WarmUp excluded from measurement ("its start-up phase is ignored").
	WarmUp sim.Time `json:"warmUpNs"`
	// Seeds to average over; more seeds smooth the random-loss noise.
	Seeds []int64 `json:"seeds"`
	// RTT is the fixed two-way propagation delay (paper: 200 ms).
	RTT sim.Time `json:"rttNs"`
	// DelayedAck runs the receivers with RFC 1122 delayed ACKs, in
	// which case the model constant becomes C = sqrt(3/4) (extension;
	// the paper's receivers ACK every packet, C = sqrt(3/2)).
	DelayedAck bool `json:"delayedAck"`
}

func (c *Figure7Config) fillDefaults() {
	if len(c.LossRates) == 0 {
		c.LossRates = []float64{0.001, 0.003, 0.005, 0.01, 0.02, 0.03, 0.05, 0.07, 0.1}
	}
	if len(c.Variants) == 0 {
		c.Variants = []workload.Kind{workload.SACK, workload.RR}
	}
	if c.Duration <= 0 {
		c.Duration = 100 * time.Second
	}
	if c.WarmUp <= 0 {
		c.WarmUp = 10 * time.Second
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	if c.RTT <= 0 {
		c.RTT = 200 * time.Millisecond
	}
}

// Figure7Point is one (variant, loss rate) measurement.
type Figure7Point struct {
	Variant workload.Kind `json:"variant"`
	// LossRate is the configured uniform drop probability p.
	LossRate float64 `json:"lossRate"`
	// Window is the measured BW·RTT/MSS in packets, averaged over seeds.
	Window float64 `json:"window"`
	// ModelWindow is the Mathis bound C/sqrt(p) with C = sqrt(3/2).
	ModelWindow float64 `json:"modelWindow"`
	// PadhyeWindow is the timeout-aware Padhye et al. prediction, which
	// the paper cites as the more accurate refinement (§4).
	PadhyeWindow float64 `json:"padhyeWindow"`
	// Timeouts is the mean coarse-timeout count per run, explaining the
	// departure from the model at high p.
	Timeouts float64 `json:"timeouts"`
}

// Figure7Result is the full sweep.
type Figure7Result struct {
	Config Figure7Config  `json:"config"`
	Points []Figure7Point `json:"points"`
}

// figure7Out is one (variant, rate, seed) run's raw measurement.
type figure7Out struct {
	Window   float64
	Timeouts uint32
}

// NewFigure7Experiment fills defaults and returns the experiment: one
// job per (variant, loss rate, seed), averaged over the seeds into one
// point per (variant, loss rate). The topology keeps the bottleneck
// uncongested (10 Mbps, deep buffer) so that the injected uniform losses
// are the only loss process and the RTT stays pinned at the configured
// value, as the model assumes.
func NewFigure7Experiment(cfg Figure7Config) Experiment {
	cfg.fillDefaults()
	cells := crossKinds(cfg.Variants, cfg.LossRates)
	return &grid[kindAt, figure7Out]{
		name:  "fig7",
		cells: cells,
		seeds: func(kindAt) []int64 { return cfg.Seeds },
		label: func(c kindAt) string { return fmt.Sprintf("%v p=%g", c.kind, c.x) },
		run:   cfg.run,
		fold: func(outs [][]figure7Out) (Renderable, error) {
			modelC := model.CAckEveryPacket
			ackPerPacket := 1
			if cfg.DelayedAck {
				modelC = model.CDelayedAck
				ackPerPacket = 2
			}
			res := &Figure7Result{Config: cfg}
			for i, c := range cells {
				res.Points = append(res.Points, Figure7Point{
					Variant:      c.kind,
					LossRate:     c.x,
					Window:       mean(outs[i], func(o figure7Out) float64 { return o.Window }),
					ModelWindow:  model.SqrtWindow(c.x, modelC),
					PadhyeWindow: model.PadhyeWindow(cfg.RTT.Seconds(), 1.0, c.x, ackPerPacket),
					Timeouts:     mean(outs[i], func(o figure7Out) float64 { return float64(o.Timeouts) }),
				})
			}
			return res, nil
		},
		Config: cfg,
	}
}

func (cfg Figure7Config) run(w *scenario.World, c kindAt, seed int64) (figure7Out, error) {
	err := fixedRTTWorld(w, seed, scenario.LossSpec{Rate: c.x}, cfg.RTT, workload.FlowSpec{
		Kind:  c.kind,
		Bytes: tcp.Infinite,
		// Large enough that the advertised window never binds: the
		// injected loss process must be the only throughput constraint,
		// as the model assumes.
		Window:     128,
		DelayedAck: cfg.DelayedAck,
	})
	if err != nil {
		return figure7Out{}, err
	}
	bw := steadyGoodputBps(w, cfg.WarmUp, cfg.Duration)
	window := bw * cfg.RTT.Seconds() / float64(tcp.DefaultMSS*8)
	return figure7Out{Window: window, Timeouts: w.Flows[0].Sender.Timeouts()}, nil
}

// fixedRTTWorld builds the Figure 7 topology — an uncongested 10 Mbps
// bottleneck behind a deep buffer, so the given loss process is the
// only one and the RTT stays pinned at rtt — as w, and installs the one
// flow.
func fixedRTTWorld(w *scenario.World, seed int64, loss scenario.LossSpec, rtt sim.Time, spec workload.FlowSpec) error {
	// Side links contribute 2 ms per direction; the bottleneck carries
	// the rest of the fixed RTT.
	const sideDelay = 1 * time.Millisecond
	if rtt <= 4*sideDelay {
		return fmt.Errorf("fixed RTT %v leaves no bottleneck delay beyond the %v of side links", rtt, 4*sideDelay)
	}
	err := w.Rebuild(seed, &scenario.Spec{
		Topology: &scenario.TopologySpec{
			BottleneckBps:   10e6,
			BottleneckDelay: scenario.Duration(rtt/2 - 2*sideDelay),
			SideBps:         100e6,
			SideDelay:       scenario.Duration(sideDelay),
			ForwardQueue:    &scenario.QueueSpec{Limit: 1000},
		},
		Loss: &loss,
	})
	if err != nil {
		return err
	}
	_, err = w.Install(spec)
	return err
}

// steadyGoodputBps runs w for duration and returns flow 0's acknowledged
// bits per second over [warmUp, duration]: the bytes acknowledged by the
// end less those acknowledged before warmUp. The snapshot timer is armed
// before any packet is in flight, so at warmUp it fires ahead of an ACK
// arriving at that same instant, which therefore counts as inside the
// window.
func steadyGoodputBps(w *scenario.World, warmUp, duration sim.Time) float64 {
	snd := w.Flows[0].Sender
	var base int64
	w.Sched.NewTimer(func() { base = snd.SndUna() }).Reset(warmUp)
	w.Run(duration)
	if duration <= warmUp {
		return 0
	}
	return float64(snd.SndUna()-base) * 8 / (duration - warmUp).Seconds()
}

// Render returns the sweep as a table of measured vs model windows.
func (r *Figure7Result) Render() string {
	t := Table{
		Title:  "Figure 7: fitness to the square-root model (window = BW*RTT/MSS, packets)",
		Header: []string{"p", "model C/sqrt(p)", "padhye"},
	}
	// One column per variant, plus timeouts.
	for _, k := range r.Config.Variants {
		t.Header = append(t.Header, k.String(), k.String()+" timeouts")
	}
	for _, p := range r.Config.LossRates {
		row := []string{fmt.Sprintf("%.3f", p), "", ""}
		for _, k := range r.Config.Variants {
			for _, pt := range r.Points {
				if pt.Variant == k && pt.LossRate == p {
					if row[1] == "" {
						row[1] = fmt.Sprintf("%.1f", pt.ModelWindow)
						row[2] = fmt.Sprintf("%.1f", pt.PadhyeWindow)
					}
					row = append(row, fmt.Sprintf("%.1f", pt.Window),
						fmt.Sprintf("%.1f", pt.Timeouts))
				}
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Point returns the measurement for (variant, p), if present.
func (r *Figure7Result) Point(kind workload.Kind, p float64) (Figure7Point, bool) {
	return find(r.Points, func(pt Figure7Point) bool { return pt.Variant == kind && pt.LossRate == p })
}
