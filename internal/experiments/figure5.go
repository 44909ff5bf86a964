package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/telemetry/flowstats"
	"rrtcp/internal/trace"
	"rrtcp/internal/workload"
)

// Figure5Config parameterizes the drop-tail burst-loss experiment
// (paper §3.2, Table 3, Figure 5): a flow with a limited amount of data
// loses a burst of packets within one window and we measure the
// effective throughput of each recovery scheme.
type Figure5Config struct {
	// Drops is the number of packets lost within one window (the paper
	// plots 3 and 6).
	Drops int `json:"drops"`
	// FirstDropPacket is the packet number of the first loss. The
	// default (60) falls where congestion avoidance has grown the
	// window to ~15-16 packets, matching the paper's loss placement
	// ("bursty packet losses occur after cwnd reaches 16").
	FirstDropPacket int `json:"firstDropPacket"`
	// TransferPackets is flow 1's limited amount of data, in packets.
	TransferPackets int `json:"transferPackets"`
	// Variants to compare; defaults to the paper's four.
	Variants []workload.Kind `json:"variants"`
	// Seed for the scheduler (the scenario itself is deterministic).
	Seed int64 `json:"seed"`
	// Telemetry, when non-nil, receives structured events from every
	// variant's run: flow events plus the instrumented bottleneck links,
	// queues, and loss injector. Under a parallel sweep each run records
	// into a private buffer and the streams are republished here in
	// variant order, so the NDJSON output stays deterministic.
	Telemetry *telemetry.Bus `json:"-"`
	// SampleEvery sets the gauge-sampling interval for the periodic
	// Sampler (cwnd, ssthresh, srtt, rto, flight, actnum, bottleneck
	// occupancy) when Telemetry is enabled. Defaults to 10ms.
	SampleEvery sim.Time `json:"-"`
	// FlowStats enables the aggregate flow-analytics layer: each job
	// folds its flow lifecycle events into a flowstats.FlowTable and the
	// result carries the merged Summary (see FlowReport). Aggregation is
	// per-job and merged in variant order, so the report is byte-identical
	// at any worker count.
	FlowStats bool `json:"flowStats,omitempty"`
	// FlowExemplars caps the reservoir of exemplar flows each job's
	// table retains in full detail (0: aggregates only).
	FlowExemplars int `json:"flowExemplars,omitempty"`
}

func (c *Figure5Config) fillDefaults() {
	if c.Drops <= 0 {
		c.Drops = 3
	}
	if c.FirstDropPacket <= 0 {
		c.FirstDropPacket = 60
	}
	if c.TransferPackets <= 0 {
		c.TransferPackets = 150
	}
	if len(c.Variants) == 0 {
		c.Variants = []workload.Kind{workload.Tahoe, workload.NewReno, workload.SACK, workload.RR}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 10 * time.Millisecond
	}
}

// DropPacketNumbers returns the packet numbers lost within the window:
// pairs separated by single survivors starting at FirstDropPacket,
// echoing the paper's Figure 3 illustration (packets 4, 5, 7, 8 lost
// from one window).
func (c *Figure5Config) DropPacketNumbers() []int64 {
	c.fillDefaults()
	out := make([]int64, 0, c.Drops)
	for i := 0; i < c.Drops; i++ {
		out = append(out, int64(c.FirstDropPacket)+int64(i)+int64(i/2))
	}
	return out
}

// Figure5Row is the outcome for one variant.
type Figure5Row struct {
	Variant workload.Kind `json:"variant"`
	// TransferDelay is the time to complete the limited transfer.
	TransferDelay sim.Time `json:"transferDelayNs"`
	// GoodputBps is the effective throughput over the whole transfer.
	GoodputBps float64 `json:"goodputBps"`
	// RecoveryGoodputBps is the effective throughput measured across
	// the congestion-recovery period only, the paper's Figure 5 metric.
	RecoveryGoodputBps float64 `json:"recoveryGoodputBps"`
	// Timeouts counts coarse retransmission timeouts suffered.
	Timeouts uint32 `json:"timeouts"`
	// Retransmits counts retransmitted segments.
	Retransmits uint32 `json:"retransmits"`
	// Finished reports whether the transfer completed within the horizon.
	Finished bool `json:"finished"`
}

// Figure5Result aggregates one drop-count scenario.
type Figure5Result struct {
	Config Figure5Config `json:"config"`
	Rows   []Figure5Row  `json:"rows"`
	// Flows is the merged flow-analytics summary across variants, set
	// when Config.FlowStats is on.
	Flows *flowstats.Summary `json:"flows,omitempty"`
}

// FlowReport computes the flow-analytics report, or a zero report when
// flow stats were not enabled.
func (r *Figure5Result) FlowReport() flowstats.Report { return flowReport(r.Flows) }

// figure5Out is one variant's outcome plus its captured event stream
// and, when flow analytics are on, the variant's flow summary. The
// stream rides in the output, so a job restored from a checkpoint
// republishes the NDJSON telemetry an uninterrupted run does.
type figure5Out struct {
	Row    Figure5Row
	Events []telemetry.Event
	Flow   *flowstats.Summary `json:",omitempty"`
}

// NewFigure5Experiment fills defaults and returns the burst-loss
// comparison for one drop count: one job per variant, each under the
// config's seed. The paper tuned background traffic against an
// 8-packet buffer purely to make flow 1 lose exactly 3 (or 6) packets
// within a window; we pin the identical pattern with a deterministic
// per-sequence loss injector on an otherwise clean path (see
// DESIGN.md §3). When the config carries a telemetry bus, each job
// captures its event stream into a private ring and fold republishes
// the streams in variant order — the bus itself is never touched from
// a worker goroutine.
func NewFigure5Experiment(cfg Figure5Config) Experiment {
	cfg.fillDefaults()
	seeds := []int64{cfg.Seed}
	return &grid[workload.Kind, figure5Out]{
		name:  "fig5",
		cells: cfg.Variants,
		seeds: func(workload.Kind) []int64 { return seeds },
		label: workload.Kind.String,
		run:   cfg.run,
		fold: func(outs [][]figure5Out) (Renderable, error) {
			res := &Figure5Result{Config: cfg}
			for _, out := range firstSeed(outs) {
				res.Rows = append(res.Rows, out.Row)
				for _, ev := range out.Events {
					cfg.Telemetry.Publish(ev)
				}
				mergeFlows(&res.Flows, out.Flow)
			}
			return res, nil
		},
		Config: cfg,
	}
}

// figure5World rebuilds w as one variant's burst-loss transfer, runs it
// to the horizon, and returns the flow.
func figure5World(w *scenario.World, cfg Figure5Config, kind workload.Kind, bus *telemetry.Bus) (*workload.Flow, error) {
	// Paper Table 3: 8-packet bottleneck buffer. The receiver window is
	// sized to BDP (~10 packets) + buffer so the flow can fill the pipe
	// without organic drops: the engineered drop pattern is then the
	// only loss event, exactly as the paper's tuned background traffic
	// arranged (DESIGN.md §3).
	err := w.Rebuild(cfg.Seed, &scenario.Spec{
		Loss:        &scenario.LossSpec{Drops: []scenario.FlowDrops{{Packets: cfg.DropPacketNumbers()}}},
		Telemetry:   bus,
		SampleEvery: cfg.SampleEvery,
	})
	if err != nil {
		return nil, err
	}
	flow, err := w.Install(workload.FlowSpec{
		Kind:            kind,
		Bytes:           int64(cfg.TransferPackets) * int64(tcp.DefaultMSS),
		Window:          18,
		InitialSSThresh: 9,
		Telemetry:       bus,
	})
	if err != nil {
		return nil, err
	}
	flow.Trace.Record() // the recovery-period goodput is a windowed scan
	w.Run(60 * time.Second)
	return flow, nil
}

// run measures one variant, capturing its event stream when the
// config carries a telemetry bus.
func (cfg Figure5Config) run(w *scenario.World, kind workload.Kind, seed int64) (figure5Out, error) {
	tally := newFlowTally(cfg.FlowStats, cfg.FlowExemplars, seed)
	var ring *telemetry.Ring
	var sinks []telemetry.Sink
	if cfg.Telemetry.Enabled() {
		ring = telemetry.NewRing(0)
		sinks = append(sinks, ring)
	}
	sinks = append(sinks, tally.sinks()...)
	// With no sink the bus is disabled, which the world and the flow
	// treat exactly as no bus.
	flow, err := figure5World(w, cfg, kind, telemetry.NewBus(sinks...))
	if err != nil {
		return figure5Out{}, err
	}
	row := Figure5Row{
		Variant:     kind,
		Timeouts:    flow.Sender.Timeouts(),
		Retransmits: flow.Sender.Retransmits(),
	}
	if delay, ok := flow.Sender.TransferDelay(); ok {
		row.Finished = true
		row.TransferDelay = delay
		row.GoodputBps = float64(cfg.TransferPackets) * float64(tcp.DefaultMSS) * 8 / delay.Seconds()
	}
	// Recovery-period goodput: from entering fast retransmit to the
	// end of the transfer (the tail of the transfer is dominated by how
	// well the variant recovers). The flow starts at 0, so it
	// completes at its transfer delay.
	if recs := flow.Trace.SamplesOf(trace.EvRecovery); len(recs) > 0 && row.Finished {
		row.RecoveryGoodputBps = flow.Trace.GoodputBps(recs[0].At, row.TransferDelay)
	}
	out := figure5Out{Row: row, Flow: tally.summary()}
	if ring != nil {
		out.Events = ring.Events()
	}
	return out, nil
}

// Render returns the Figure 5 result as a text table.
func (r *Figure5Result) Render() string {
	t := Table{
		Title: fmt.Sprintf("Figure 5: effective throughput, %d packet losses in one window (drop-tail)",
			r.Config.Drops),
		Header: []string{"variant", "transfer delay", "goodput", "recovery goodput", "timeouts", "rtx"},
	}
	for _, row := range r.Rows {
		delay := "DNF"
		goodput := "-"
		rec := "-"
		if row.Finished {
			delay = fmt.Sprintf("%.3fs", row.TransferDelay.Seconds())
			goodput = kbps(row.GoodputBps)
			rec = kbps(row.RecoveryGoodputBps)
		}
		t.AddRow(row.Variant.String(), delay, goodput, rec,
			fmt.Sprintf("%d", row.Timeouts), fmt.Sprintf("%d", row.Retransmits))
	}
	if r.Flows != nil {
		return t.String() + "\n" + r.Flows.Report().Render()
	}
	return t.String()
}

// Row returns the row for a variant, if present.
func (r *Figure5Result) Row(kind workload.Kind) (Figure5Row, bool) {
	return find(r.Rows, func(row Figure5Row) bool { return row.Variant == kind })
}
