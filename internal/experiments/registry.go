package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"rrtcp/internal/sim"
	"rrtcp/internal/sweep"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// Renderable is what every experiment ultimately produces: a structured
// result (JSON-encodable) with a paper-style text rendering.
type Renderable interface {
	Render() string
}

// Experiment is the unified sweep-shaped interface every runner in this
// package implements: an experiment names itself, expands into a flat
// list of independent sweep jobs, and reduces the job results — handed
// back in job-index order — into its figure or table. Because Reduce
// sees results in the same order at any worker count, an experiment's
// output is byte-identical whether the jobs ran sequentially or across
// a pool.
type Experiment interface {
	Name() string
	Jobs() ([]sweep.Job, error)
	Reduce(results []any) (Renderable, error)
}

// Options carries the CLI-facing knobs shared across experiments. Each
// builder maps the fields its registration lists (Registration.Flags)
// onto its config and ignores the rest; zero values always mean
// "experiment default".
type Options struct {
	// Seed overrides the experiment's primary seed.
	Seed int64
	// Runs scales repetition where an experiment has a single count
	// (chaos: fault schedules).
	Runs int
	// Drops is the burst size for the engineered-loss experiments
	// (fig5, ablation).
	Drops int
	// Quick shrinks long sweeps for fast runs (fig7).
	Quick bool
	// DelayedAck runs receivers with RFC 1122 delayed ACKs (fig7).
	DelayedAck bool
	// Variants restricts the TCP variants under test.
	Variants []workload.Kind
	// Bytes is the per-flow transfer size (chaos).
	Bytes int64
	// Horizon bounds each run in simulated time (chaos).
	Horizon sim.Time
	// BundleDir receives violation repro bundles (chaos).
	BundleDir string
	// Telemetry receives structured events from experiments that stream
	// them (fig5, stress).
	Telemetry *telemetry.Bus
	// Cells and Flows size the stress soak: independent simulation
	// cells, and concurrent flows per cell.
	Cells int
	Flows int
	// MaxEvents is the per-cell event budget for the stress soak; zero
	// disables it.
	MaxEvents uint64
	// FlowStats enables the aggregate flow-analytics layer where an
	// experiment supports it (fig5, chaos, stress); FlowExemplars caps
	// the reservoir of fully-detailed exemplar flows.
	FlowStats     bool
	FlowExemplars int
}

// Builder constructs an Experiment from shared options.
type Builder func(Options) (Experiment, error)

// Registration is one named experiment in the registry.
type Registration struct {
	// Name is the CLI subcommand.
	Name string
	// Desc is a one-line description for usage text.
	Desc string
	// Flags names the options Build reads, each by the rrsim flag that
	// sets it ("events" sets Telemetry, "delack" DelayedAck,
	// "budget-events" MaxEvents, "bundles" BundleDir; the rest are
	// their field's name in kebab case). An option it does not list
	// changes nothing Build makes, so rrsim refuses its flag.
	Flags []string
	// Build constructs the experiment.
	Build Builder
}

// registry holds every experiment in canonical (paper) order; rrsim
// derives its dispatch table, usage text and each command's flags from
// it.
var registry = []Registration{
	{Name: "fig5", Desc: "Figure 5: drop-tail burst-loss throughput", Flags: []string{"drops", "seed", "variants", "events", "flow-stats", "flow-exemplars"}, Build: func(o Options) (Experiment, error) {
		return NewFigure5Experiment(Figure5Config{
			Drops: o.Drops, Seed: o.Seed, Variants: o.Variants, Telemetry: o.Telemetry,
			FlowStats: o.FlowStats, FlowExemplars: o.FlowExemplars,
		}), nil
	}},
	{Name: "fig6", Desc: "Figure 6: RED-gateway sequence traces", Flags: []string{"seed", "variants"}, Build: func(o Options) (Experiment, error) {
		return NewFigure6Experiment(Figure6Config{Seed: o.Seed, Variants: o.Variants}), nil
	}},
	{Name: "fig7", Desc: "Figure 7: square-root-model fitness", Flags: []string{"quick", "delack", "variants"}, Build: func(o Options) (Experiment, error) {
		cfg := Figure7Config{DelayedAck: o.DelayedAck, Variants: o.Variants}
		if o.Quick {
			cfg.LossRates = []float64{0.001, 0.01, 0.05, 0.1}
			cfg.Duration = 30 * time.Second
			cfg.Seeds = []int64{1}
		}
		return NewFigure7Experiment(cfg), nil
	}},
	{Name: "table5", Desc: "Table 5: fairness matrix", Build: func(o Options) (Experiment, error) {
		return NewTable5Experiment(Table5Config{}), nil
	}},
	{Name: "ackloss", Desc: "§2.3 ACK-loss robustness sweep", Flags: []string{"variants"}, Build: func(o Options) (Experiment, error) {
		return NewAckLossExperiment(AckLossConfig{Variants: o.Variants}), nil
	}},
	{Name: "fairshare", Desc: "§2.3 fair-share gateways (FIFO vs DRR)", Flags: []string{"seed"}, Build: func(o Options) (Experiment, error) {
		return NewFairShareExperiment(FairShareConfig{Seed: o.Seed}), nil
	}},
	{Name: "twoway", Desc: "two-way traffic extension", Flags: []string{"variants"}, Build: func(o Options) (Experiment, error) {
		return NewTwoWayExperiment(TwoWayConfig{Variants: o.Variants}), nil
	}},
	{Name: "smoothstart", Desc: "slow-start overshoot vs Smooth-start [21]", Flags: []string{"seed"}, Build: func(o Options) (Experiment, error) {
		return NewSmoothStartExperiment(SmoothStartConfig{Seed: o.Seed}), nil
	}},
	{Name: "bursty", Desc: "Gilbert-Elliott correlated-loss sweep", Flags: []string{"variants"}, Build: func(o Options) (Experiment, error) {
		return NewBurstyExperiment(BurstyConfig{Variants: o.Variants}), nil
	}},
	{Name: "ablation", Desc: "RR design-choice ablations", Flags: []string{"drops"}, Build: func(o Options) (Experiment, error) {
		return NewAblationExperiment(o.Drops), nil
	}},
	{Name: "chaos", Desc: "seeded-random fault sweep under invariant checking", Flags: []string{"runs", "seed", "variants", "bytes", "horizon", "bundles", "flow-stats", "flow-exemplars"}, Build: func(o Options) (Experiment, error) {
		return NewChaosExperiment(ChaosConfig{
			Schedules: o.Runs, Seed: o.Seed, Variants: o.Variants,
			Bytes: o.Bytes, Horizon: o.Horizon, BundleDir: o.BundleDir,
			FlowStats: o.FlowStats, FlowExemplars: o.FlowExemplars,
		}), nil
	}},
	{Name: "stress", Desc: "overload soak: many-flow cells under chaos, budgets, and graceful degradation", Flags: []string{"cells", "flows", "seed", "bytes", "horizon", "variants", "events", "budget-events", "flow-stats", "flow-exemplars"}, Build: func(o Options) (Experiment, error) {
		return NewStressExperiment(StressConfig{
			Cells: o.Cells, Flows: o.Flows, Seed: o.Seed, Bytes: o.Bytes,
			Horizon: o.Horizon, Variants: o.Variants, Telemetry: o.Telemetry,
			MaxEvents: o.MaxEvents, FlowStats: o.FlowStats, FlowExemplars: o.FlowExemplars,
		}), nil
	}},
}

// Experiments returns the registry in canonical order.
func Experiments() []Registration {
	return append([]Registration(nil), registry...)
}

// Build constructs the named experiment from shared options.
func Build(name string, o Options) (Experiment, error) {
	for _, r := range registry {
		if r.Name == name {
			return r.Build(o)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", name)
}

// RunOptions parameterizes experiment execution, as opposed to the
// experiment definition itself. None of it can change a result byte;
// the zero value of every harness field means "off", matching
// sweep.Config.
type RunOptions struct {
	// Parallel bounds the sweep worker pool; <= 0 means GOMAXPROCS and
	// 1 forces sequential execution. The result is byte-identical
	// either way.
	Parallel int
	// Progress, when non-nil, receives the sweep's progress events
	// (telemetry.KSweepStart/KSweepJob/KSweepDone, and KSweepStall).
	Progress *telemetry.Bus
	// Context, when non-nil, cancels the sweep: dispatch stops,
	// in-flight jobs drain, and Run returns an error wrapping
	// context.Cause. Completed jobs are still journaled when a
	// checkpoint is active, so a canceled run can be resumed.
	Context context.Context
	// StallAfter arms the sweep loop's stall check for hung jobs.
	StallAfter time.Duration
	// CheckpointDir, when non-empty, journals completed job results
	// under this directory, in a journal of the sweep's own: its key
	// covers the experiment's name and configuration and every job's
	// name and seed (see journalJobs).
	CheckpointDir string
	// Resume restores results journaled by a previous interrupted run
	// instead of starting the checkpoint afresh.
	Resume bool
	// OnCheckpoint, when non-nil, is told where the journal lives and
	// what a resume restored, before the sweep starts.
	OnCheckpoint func(dir string, restored, skipped int)
}

// Run executes an experiment end to end: expand jobs, sweep them across
// the worker pool, reduce the ordered results. With CheckpointDir set
// the sweep journals completed jobs and, with Resume, skips jobs a
// previous run already finished — the reduced output stays
// byte-identical to an uninterrupted run.
func Run(e Experiment, opt RunOptions) (Renderable, error) {
	jobs, err := e.Jobs()
	if err != nil {
		return nil, err
	}
	cfg := sweep.Config{
		Name:       e.Name(),
		Workers:    opt.Parallel,
		Telemetry:  opt.Progress,
		Context:    opt.Context,
		StallAfter: opt.StallAfter,
	}
	if opt.CheckpointDir != "" {
		keyed, err := journalJobs(e, jobs)
		if err != nil {
			return nil, err
		}
		journal, err := sweep.OpenJournal(opt.CheckpointDir, cfg, keyed, opt.Resume, restore)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
		if opt.OnCheckpoint != nil {
			opt.OnCheckpoint(journal.Dir(), journal.RestoredCount(), journal.Skipped())
		}
		cfg.Checkpoint = journal
	}
	results, err := sweep.Run(cfg, jobs)
	if err != nil {
		return nil, err
	}
	return e.Reduce(results)
}

// journalJobs is the job list a checkpoint journal is keyed by: jobs
// and, after them, an entry named by the experiment's JSON — for a
// grid, the configuration its result prints. A run whose options
// change that configuration (fig5's drops, chaos's transfer size, the
// stress soak's flow count) opens a journal of its own rather than
// resuming another configuration's results. The journal's meta.json
// counts the entry among its jobs; no job ever runs under it.
func journalJobs(e Experiment, jobs []sweep.Job) ([]sweep.Job, error) {
	config, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: checkpoint key: %w", e.Name(), err)
	}
	return append(jobs[:len(jobs):len(jobs)], sweep.Job{Name: string(config)}), nil
}

// restore hands a journaled result to Reduce as the JSON it was
// journaled as; grid.Reduce decodes it into the experiment's output.
func restore(data []byte) (any, error) { return json.RawMessage(data), nil }
