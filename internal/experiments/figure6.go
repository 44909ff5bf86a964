package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/trace"
	"rrtcp/internal/workload"
)

// Figure6Config parameterizes the RED-gateway experiment (paper §3.3,
// Table 4, Figure 6): ten flows of the same variant share a RED
// bottleneck under heavy congestion and the first flow's sequence-
// number trace is plotted.
type Figure6Config struct {
	// Variants to compare; defaults to the paper's three panels
	// (New-Reno, SACK, RR).
	Variants []workload.Kind `json:"variants"`
	// Flows sharing the bottleneck (paper: 10).
	Flows int `json:"flows"`
	// Duration of the simulation (paper: 6 s).
	Duration sim.Time `json:"durationNs"`
	// Seed for RED's random drops in the run whose trace is plotted.
	Seed int64 `json:"seed"`
	// Seeds, when longer than one entry, are averaged over for the
	// throughput columns (the trace still comes from Seed). RED's
	// random drops make any single 6-second window noisy.
	Seeds []int64 `json:"seeds"`
	// RED overrides the Table 4 gateway parameters when non-nil.
	RED *netem.REDConfig `json:"red,omitempty"`
}

func (c *Figure6Config) fillDefaults() {
	if len(c.Variants) == 0 {
		c.Variants = []workload.Kind{workload.NewReno, workload.SACK, workload.RR}
	}
	if c.Flows <= 0 {
		c.Flows = 10
	}
	if c.Duration <= 0 {
		c.Duration = 6 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{c.Seed, 43, 44, 45, 46, 47, 48, 49}
	}
}

// Figure6Panel is the outcome for one variant: the first flow's
// sequence trace and throughput, plus aggregate statistics.
type Figure6Panel struct {
	Variant workload.Kind `json:"variant"`
	// Flow0Seq is the (time, packet number) send/retransmit series of
	// the first flow — the paper's sequence plot.
	Flow0Seq []trace.Point `json:"flow0Seq"`
	// Flow0GoodputBps is the first flow's effective throughput over
	// the run.
	Flow0GoodputBps float64 `json:"flow0GoodputBps"`
	// Flow0Packets is the highest packet number the first flow had
	// acknowledged by the end of the run.
	Flow0Packets int64 `json:"flow0Packets"`
	// Flow0Timeouts is the first flow's mean coarse-timeout count.
	Flow0Timeouts float64 `json:"flow0Timeouts"`
	// AggregateGoodputBps sums goodput across all flows.
	AggregateGoodputBps float64 `json:"aggregateGoodputBps"`
	// REDEarlyDrops / REDForcedDrops report gateway drop behaviour.
	REDEarlyDrops  uint64 `json:"redEarlyDrops"`
	REDForcedDrops uint64 `json:"redForcedDrops"`
	// BottleneckUtilization is the mean fraction of the bottleneck's
	// capacity in use — the paper claims RR keeps it highest by probing
	// the new equilibrium while recovering.
	BottleneckUtilization float64 `json:"bottleneckUtilization"`
}

// Figure6Result holds all panels.
type Figure6Result struct {
	Config Figure6Config  `json:"config"`
	Panels []Figure6Panel `json:"panels"`
}

// NewFigure6Experiment fills defaults and returns the experiment: one
// job per (variant, seed). All flows in one run use the same recovery
// scheme, as in the paper. The first five flows start at t=0 and a new
// flow starts every 0.5 s afterwards; all flows have infinite data.
// Throughput columns average across the seeds; the sequence plot comes
// from the primary seed's run.
func NewFigure6Experiment(cfg Figure6Config) Experiment {
	cfg.fillDefaults()
	return &grid[workload.Kind, Figure6Panel]{
		name:  "fig6",
		cells: cfg.Variants,
		seeds: func(workload.Kind) []int64 { return cfg.Seeds },
		label: workload.Kind.String,
		run:   cfg.run,
		fold: func(outs [][]Figure6Panel) (Renderable, error) {
			res := &Figure6Result{Config: cfg}
			for _, panels := range outs {
				var agg Figure6Panel
				for si, panel := range panels {
					if cfg.Seeds[si] == cfg.Seed || (si == 0 && agg.Flow0Seq == nil) {
						agg.Flow0Seq = panel.Flow0Seq
					}
					agg.Variant = panel.Variant
					agg.Flow0GoodputBps += panel.Flow0GoodputBps
					agg.Flow0Packets += panel.Flow0Packets
					agg.Flow0Timeouts += panel.Flow0Timeouts
					agg.AggregateGoodputBps += panel.AggregateGoodputBps
					agg.REDEarlyDrops += panel.REDEarlyDrops
					agg.REDForcedDrops += panel.REDForcedDrops
					agg.BottleneckUtilization += panel.BottleneckUtilization
				}
				n := int64(len(cfg.Seeds))
				agg.Flow0GoodputBps /= float64(n)
				agg.Flow0Packets /= n
				agg.Flow0Timeouts /= float64(n)
				agg.AggregateGoodputBps /= float64(n)
				agg.REDEarlyDrops /= uint64(n)
				agg.REDForcedDrops /= uint64(n)
				agg.BottleneckUtilization /= float64(n)
				res.Panels = append(res.Panels, agg)
			}
			return res, nil
		},
		Config: cfg,
	}
}

// figure6World rebuilds w as the RED dumbbell and installs its flows.
func figure6World(w *scenario.World, cfg Figure6Config, kind workload.Kind, seed int64) error {
	err := w.Rebuild(seed, &scenario.Spec{Topology: &scenario.TopologySpec{
		Flows:        cfg.Flows,
		ForwardQueue: &scenario.QueueSpec{Type: "red", RED: cfg.RED},
	}})
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Flows; i++ {
		start := sim.Time(0)
		// The first five flows start at time 0; then one every 0.5 s.
		if i >= 5 {
			start = time.Duration(i-4) * 500 * time.Millisecond
		}
		if _, err := w.Install(workload.FlowSpec{
			Kind:    kind,
			StartAt: start,
			Bytes:   tcp.Infinite,
			Window:  30,
		}); err != nil {
			return err
		}
	}
	return nil
}

func (cfg Figure6Config) run(w *scenario.World, kind workload.Kind, seed int64) (Figure6Panel, error) {
	if err := figure6World(w, cfg, kind, seed); err != nil {
		return Figure6Panel{}, err
	}
	w.Flows[0].Trace.Record() // Flow0Seq is the sequence plot

	// Bottleneck utilization: bits forwarded per 100 ms tick over the
	// link capacity. The first tick only sets the baseline yet counts
	// in the mean; the fig6 golden pins that definition.
	const sampleEvery = 100 * time.Millisecond
	link := w.Net.ForwardLink()
	var firstTx, lastTx uint64
	var ticks int
	var tick *sim.Timer
	tick = w.Sched.NewTimer(func() {
		lastTx = link.TxBytes
		if ticks == 0 {
			firstTx = lastTx
		}
		ticks++
		tick.Reset(sampleEvery)
	})
	if err := tick.At(w.Sched.Now() + sampleEvery); err != nil {
		return Figure6Panel{}, err
	}

	w.Run(cfg.Duration)

	red := link.Queue().Discipline().(*netem.REDQueue)
	panel := Figure6Panel{
		Variant:        kind,
		Flow0Seq:       w.Flows[0].Trace.SeqSeries(int64(tcp.DefaultMSS)),
		Flow0Timeouts:  float64(w.Flows[0].Sender.Timeouts()),
		REDEarlyDrops:  red.EarlyDrops,
		REDForcedDrops: red.ForcedDrops,
	}
	goodputBps := func(f *workload.Flow) float64 { return float64(f.Sender.SndUna()) * 8 / cfg.Duration.Seconds() }
	panel.Flow0GoodputBps = goodputBps(w.Flows[0])
	panel.Flow0Packets = w.Flows[0].Sender.SndUna() / int64(tcp.DefaultMSS)
	for _, f := range w.Flows {
		panel.AggregateGoodputBps += goodputBps(f)
	}
	if ticks > 0 {
		bitsPerTick := float64(lastTx-firstTx) * 8 / float64(ticks)
		panel.BottleneckUtilization = bitsPerTick / (w.Net.Config().BottleneckBps * sampleEvery.Seconds())
	}
	return panel, nil
}

// Render returns the panels as a summary table followed by ASCII
// sequence plots.
func (r *Figure6Result) Render() string {
	t := Table{
		Title: fmt.Sprintf("Figure 6: first flow under RED gateways (%d flows, %.1fs)",
			r.Config.Flows, r.Config.Duration.Seconds()),
		Header: []string{"variant", "flow1 goodput", "flow1 pkts acked", "flow1 timeouts",
			"aggregate", "utilization", "RED early/forced drops"},
	}
	for _, p := range r.Panels {
		t.AddRow(p.Variant.String(), kbps(p.Flow0GoodputBps),
			fmt.Sprintf("%d", p.Flow0Packets),
			fmt.Sprintf("%.1f", p.Flow0Timeouts),
			kbps(p.AggregateGoodputBps),
			fmt.Sprintf("%.1f%%", p.BottleneckUtilization*100),
			fmt.Sprintf("%d/%d", p.REDEarlyDrops, p.REDForcedDrops))
	}
	out := t.String()
	for _, p := range r.Panels {
		out += fmt.Sprintf("\nsequence plot (%s): packets sent vs time\n%s",
			p.Variant, trace.RenderASCII(p.Flow0Seq, 72, 18))
	}
	return out
}

// Panel returns the panel for a variant, if present.
func (r *Figure6Result) Panel(kind workload.Kind) (Figure6Panel, bool) {
	return find(r.Panels, func(p Figure6Panel) bool { return p.Variant == kind })
}
