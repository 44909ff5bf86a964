package experiments

import (
	"fmt"
	"strings"
	"time"

	"rrtcp/internal/faults"
	"rrtcp/internal/guard"
	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/sweep"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/telemetry/flowstats"
	"rrtcp/internal/workload"
)

// The stress soak is the scale-and-overload counterpart of the chaos
// sweep: instead of one flow per case, every cell packs many concurrent
// flows onto one shared bottleneck under a seeded-random fault plan,
// with the invariant checker (liveness watchdog included), a bounded
// telemetry sink, and a guard budget all armed. The point is not a
// paper figure — it is to demonstrate that the harness survives its own
// worst case: a cell that blows its budget degrades (a typed, reported
// outcome), never OOMs or wedges the sweep, and a cell that stays
// inside its budget produces byte-identical results run after run.

// StressConfig parameterizes a stress soak.
type StressConfig struct {
	// Cells is the number of independent simulation cells (default 8).
	Cells int `json:"cells"`
	// Flows is the number of concurrent flows per cell (default 64).
	Flows int `json:"flows"`
	// Seed drives per-cell seeds (default 1): cell i runs
	// sweep.DeriveSeed(Seed-1, i).
	Seed int64 `json:"seed"`
	// Bytes is the per-flow transfer size (default 32 kB).
	Bytes int64 `json:"bytes"`
	// Horizon bounds each cell in simulated time (default 60 s).
	Horizon sim.Time `json:"horizonNs"`
	// Variants cycle across a cell's flows (default: all).
	Variants []workload.Kind `json:"variants"`

	// MaxEvents is the per-cell event budget; zero disables it.
	// StormEvents is the Zeno detector and is always armed (default
	// 1<<20 consecutive events at a frozen clock).
	MaxEvents   uint64 `json:"maxEvents,omitempty"`
	StormEvents uint64 `json:"stormEvents,omitempty"`

	// TelemetryBudget bounds each cell's event stream through a
	// BoundedSink (SampleOneInK past the budget); zero selects 10000.
	TelemetryBudget uint64 `json:"telemetryBudget,omitempty"`

	// FlowStats enables the aggregate flow-analytics layer: each cell
	// folds its flow lifecycle events into a flowstats.FlowTable —
	// subscribed directly on the bus, ahead of the BoundedSink's
	// sampling, so the accounting stays exact under overload — and the
	// result carries the merged Summary (see FlowReport).
	FlowStats bool `json:"flowStats,omitempty"`
	// FlowExemplars caps the reservoir of exemplar flows each cell's
	// table retains in full detail (0: aggregates only).
	FlowExemplars int `json:"flowExemplars,omitempty"`

	// Telemetry, when non-nil, receives each cell's final overload and
	// drop accounting, republished in cell order by the soak's fold.
	Telemetry *telemetry.Bus `json:"-"`
}

func (c *StressConfig) fillDefaults() {
	if c.Cells <= 0 {
		c.Cells = 8
	}
	if c.Flows <= 0 {
		c.Flows = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Bytes <= 0 {
		c.Bytes = 32 * 1000
	}
	if c.Horizon <= 0 {
		c.Horizon = 60 * time.Second
	}
	if len(c.Variants) == 0 {
		c.Variants = workload.Kinds()
	}
	if c.StormEvents == 0 {
		c.StormEvents = 1 << 20
	}
	if c.TelemetryBudget == 0 {
		c.TelemetryBudget = 10000
	}
}

// StressCell is one cell's outcome. All fields derive from the
// deterministic simulation, so a cell report reproduces bit-for-bit
// under its seed — budget trips included, since every budget counts
// simulated events.
type StressCell struct {
	Cell     int     `json:"cell"`
	Flows    int     `json:"flows"`
	Finished int     `json:"finished"`
	Events   uint64  `json:"events"`
	SimTimeS float64 `json:"simTimeS"`
	// TelemetryKept / TelemetryDropped are the cell's BoundedSink
	// accounting.
	TelemetryKept    uint64 `json:"telemetryKept"`
	TelemetryDropped uint64 `json:"telemetryDropped"`
	// Violations counts structural invariant breaches; Stalls counts
	// liveness ("stall"/"stall-no-timer") detections, reported
	// separately because a stalled cell degrades rather than fails.
	Violations int `json:"violations"`
	Stalls     int `json:"stalls"`
	// Degraded names the tripped resource ("events", "event-storm",
	// "liveness", ...) for a cell that blew its budget; empty otherwise.
	Degraded string `json:"degraded,omitempty"`
	// Flow is the cell's flow-analytics summary, set when
	// StressConfig.FlowStats is on. Degraded cells carry it too — the
	// accounting up to the budget trip.
	Flow *flowstats.Summary `json:"flow,omitempty"`
	// detail is a degraded cell's cause (a tripped guard budget or a
	// liveness stall), for the report's StressDegrade; overload is the
	// tripped budget, which fold republishes.
	detail   string
	overload *guard.OverloadError
}

// run executes one cell, rebuilding w as its world: Flows
// concurrent transfers on a shared dumbbell under a seeded-random fault
// plan, watched by the invariant checker and guarded by the configured
// budgets. A cell that trips a budget or stalls returns its report with
// the typed cause, which carries the sweep's Degraded marker.
func (cfg StressConfig) run(w *scenario.World, index int, seed int64) (StressCell, error) {
	bounded := telemetry.NewBoundedSink(telemetry.NullSink{}, telemetry.BoundedConfig{
		MaxEvents: cfg.TelemetryBudget,
		Policy:    telemetry.SampleOneInK,
		Src:       fmt.Sprintf("cell%d", index),
	})
	bus := telemetry.NewBus(bounded)
	tally := newFlowTally(cfg.FlowStats, cfg.FlowExemplars, seed)
	for _, s := range tally.sinks() {
		bus.Subscribe(s)
	}
	// The paper topology, scaled up: the bottleneck (Table 3's 0.8 Mbps)
	// grows with the flow count so the cell is congested but not parked,
	// and the shared buffer deepens with the fan-in.
	err := w.Rebuild(seed, &scenario.Spec{Telemetry: bus, Topology: &scenario.TopologySpec{
		Flows:         cfg.Flows,
		BottleneckBps: 0.8e6 * max(float64(cfg.Flows)/4, 1),
		ForwardQueue:  &scenario.QueueSpec{Limit: 8 + cfg.Flows},
	}})
	if err != nil {
		return StressCell{}, err
	}
	sched := w.Sched
	for i := 0; i < cfg.Flows; i++ {
		if _, err := w.Install(workload.FlowSpec{
			Kind:      cfg.Variants[i%len(cfg.Variants)],
			StartAt:   sim.Time(i) * 5 * time.Millisecond,
			Bytes:     cfg.Bytes,
			Window:    32,
			Telemetry: bus,
			NoTrace:   true, // nothing reads flow.Trace; the bus carries every event
		}); err != nil {
			return StressCell{}, err
		}
	}
	plan := faults.RandomPlanSpec(sched.DeriveRand("stress-plan"), cfg.Horizon, w.Net.Config())
	checker, err := supervise(w, bus, &plan, sched.DeriveRand("stress-faults"))
	if err != nil {
		return StressCell{}, err
	}

	mon := guard.Attach(sched, guard.Limits{MaxEvents: cfg.MaxEvents, StormEvents: cfg.StormEvents}, bus)

	w.Run(cfg.Horizon)
	bounded.Finalize(sched.Now())

	cell := StressCell{
		Cell:             index,
		Flows:            cfg.Flows,
		Events:           sched.Processed(),
		SimTimeS:         sched.Now().Seconds(),
		TelemetryKept:    bounded.Kept(),
		TelemetryDropped: bounded.Dropped(),
	}
	for _, f := range w.Flows {
		if f.Sender.Done() {
			cell.Finished++
		}
	}
	for _, v := range checker.Violations() {
		if v.Rule == "stall" || v.Rule == "stall-no-timer" {
			cell.Stalls++
		} else {
			cell.Violations++
		}
	}
	if tally.table != nil {
		// A cell knows its clock: score the windows up to where the run
		// stopped, not just up to the last flow event.
		tally.table.Flush(sched.Now())
	}
	cell.Flow = tally.summary()

	// Degradation priority: a guard trip explains the run ending early
	// and wins; a liveness stall with no guard trip degrades too (the
	// cell wedged but stayed inside its budgets).
	if oerr := mon.Err(); oerr != nil {
		cell.Degraded, cell.detail, cell.overload = oerr.Resource, oerr.Error(), oerr
		return cell, oerr
	}
	if serr := checker.StallError(); serr != nil {
		cell.Degraded, cell.detail = "liveness", serr.Error()
		return cell, serr
	}
	return cell, nil
}

// StressResult is the full soak outcome.
type StressResult struct {
	Config StressConfig `json:"config"`
	// Cells holds every cell's report in cell order — budget-tripped
	// cells included, marked by their Degraded field.
	Cells []StressCell `json:"cells"`
	// Degraded lists the budget-tripped cells' causes, in cell order.
	Degraded []StressDegrade `json:"degraded,omitempty"`
	// Aggregates across all cells.
	TotalEvents  uint64 `json:"totalEvents"`
	TotalKept    uint64 `json:"totalKept"`
	TotalDropped uint64 `json:"totalDropped"`
	Violations   int    `json:"violations"`
	Stalls       int    `json:"stalls"`
	// Flows is the merged flow-analytics summary across cells, set when
	// Config.FlowStats is on.
	Flows *flowstats.Summary `json:"flows,omitempty"`
}

// FlowReport computes the flow-analytics report, or a zero report when
// flow stats were not enabled.
func (r *StressResult) FlowReport() flowstats.Report { return flowReport(r.Flows) }

// StressDegrade records why one cell degraded.
type StressDegrade struct {
	Cell     int    `json:"cell"`
	Resource string `json:"resource"`
	Detail   string `json:"detail"`
}

// Violated reports the number of structural invariant violations across
// the soak — the count that should fail a run. Liveness stalls and
// budget trips are excluded: they surface as degraded cells, which is
// the soak behaving as designed.
func (r *StressResult) Violated() int { return r.Violations }

// Render formats the soak report.
func (r *StressResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stress soak: %d cells x %d flows (seed %d, %v horizon, %d-byte transfers)\n",
		r.Config.Cells, r.Config.Flows, r.Config.Seed, r.Config.Horizon, r.Config.Bytes)
	fmt.Fprintf(&b, "%-5s %6s %9s %10s %9s %8s %8s %s\n",
		"cell", "flows", "finished", "events", "simtime", "kept", "dropped", "state")
	for _, c := range r.Cells {
		state := "ok"
		if c.Degraded != "" {
			state = "degraded:" + c.Degraded
		}
		fmt.Fprintf(&b, "%-5d %6d %9d %10d %8.2fs %8d %8d %s\n",
			c.Cell, c.Flows, c.Finished, c.Events, c.SimTimeS,
			c.TelemetryKept, c.TelemetryDropped, state)
	}
	fmt.Fprintf(&b, "total: %d events, %d telemetry kept, %d dropped, %d degraded cells\n",
		r.TotalEvents, r.TotalKept, r.TotalDropped, len(r.Degraded))
	for _, d := range r.Degraded {
		fmt.Fprintf(&b, "DEGRADED cell %d (%s): %s\n", d.Cell, d.Resource, d.Detail)
	}
	if r.Violations > 0 {
		fmt.Fprintf(&b, "INVARIANT VIOLATIONS: %d structural breaches across cells\n", r.Violations)
	}
	if r.Stalls > 0 {
		fmt.Fprintf(&b, "liveness: %d stalled-flow detections\n", r.Stalls)
	}
	if r.Flows != nil {
		b.WriteByte('\n')
		b.WriteString(r.Flows.Report().Render())
	}
	return b.String()
}

// NewStressExperiment fills defaults and returns the soak: one job per
// cell, cell i seeded sweep.DeriveSeed(Config.Seed-1, i). The -1 keeps
// the default seed 1 on the cells its goldens were written with. A
// degraded cell's report reaches fold like any other; fold lists its
// cause and republishes each cell's final overload and drop accounting
// onto the configured telemetry bus — in cell order, so the aggregate
// metrics stream is deterministic.
func NewStressExperiment(cfg StressConfig) Experiment {
	cfg.fillDefaults()
	cells, seedOf := ownSeeds(cfg.Cells, func(i int) int64 { return sweep.DeriveSeed(cfg.Seed-1, i) })
	return &grid[int, StressCell]{
		name:  "stress",
		cells: cells,
		seeds: seedOf,
		label: func(i int) string { return fmt.Sprintf("cell%d", i) },
		run:   cfg.run,
		fold: func(outs [][]StressCell) (Renderable, error) {
			res := &StressResult{Config: cfg}
			for _, cell := range firstSeed(outs) {
				if cell.Degraded != "" {
					res.Degraded = append(res.Degraded, StressDegrade{
						Cell:     cell.Cell,
						Resource: cell.Degraded,
						Detail:   cell.detail,
					})
				}
				res.Cells = append(res.Cells, cell)
				res.TotalEvents += cell.Events
				res.TotalKept += cell.TelemetryKept
				res.TotalDropped += cell.TelemetryDropped
				res.Violations += cell.Violations
				res.Stalls += cell.Stalls
				mergeFlows(&res.Flows, cell.Flow)

				if cell.TelemetryDropped > 0 && cfg.Telemetry.Enabled() {
					cfg.Telemetry.Publish(telemetry.Event{
						Comp: telemetry.CompTelemetry, Kind: telemetry.KTelemetryDrops,
						Src: fmt.Sprintf("cell%d", cell.Cell), Flow: telemetry.NoFlow,
						A: float64(cell.TelemetryDropped), B: float64(cell.TelemetryKept),
					})
				}
				if o := cell.overload; o != nil {
					cfg.Telemetry.Publish(telemetry.Event{
						Comp: telemetry.CompGuard, Kind: telemetry.KOverload,
						Src: o.Resource, Flow: telemetry.NoFlow,
						A: o.Observed, B: o.Limit,
					})
				}
			}
			return res, nil
		},
		Config: cfg,
	}
}
