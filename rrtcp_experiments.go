// Experiment surface of the rrtcp facade: analytic models, the
// table/figure runners, parallel sweeps, scenarios, and chaos.
package rrtcp

import (
	"io"

	"rrtcp/internal/experiments"
	"rrtcp/internal/faults"
	"rrtcp/internal/invariant"
	"rrtcp/internal/model"
	"rrtcp/internal/scenario"
	"rrtcp/internal/sweep"
	"rrtcp/internal/telemetry"
)

// --- analytic models (paper §4) ---

// SqrtModelWindow returns the Mathis et al. bound C/sqrt(p) in packets.
func SqrtModelWindow(p, c float64) float64 { return model.SqrtWindow(p, c) }

// CAckEveryPacket is the Mathis constant for ACK-every-packet receivers.
const CAckEveryPacket = model.CAckEveryPacket

// PadhyeModelWindow returns the timeout-aware Padhye et al. window.
func PadhyeModelWindow(rttSeconds, t0Seconds, p float64, b int) float64 {
	return model.PadhyeWindow(rttSeconds, t0Seconds, p, b)
}

// --- experiment runners (one per table/figure) ---

type (
	// Figure5Config / Figure5Result: drop-tail burst-loss throughput.
	Figure5Config = experiments.Figure5Config
	Figure5Result = experiments.Figure5Result
	// Figure6Config / Figure6Result: RED-gateway sequence traces.
	Figure6Config = experiments.Figure6Config
	Figure6Result = experiments.Figure6Result
	// Figure7Config / Figure7Result: square-root-model fitness.
	Figure7Config = experiments.Figure7Config
	Figure7Result = experiments.Figure7Result
	// Table5Config / Table5Case / Table5Result: fairness matrix.
	Table5Config = experiments.Table5Config
	Table5Case   = experiments.Table5Case
	Table5Result = experiments.Table5Result
	// AckLossConfig / AckLossResult: §2.3 ACK-loss robustness.
	AckLossConfig = experiments.AckLossConfig
	AckLossResult = experiments.AckLossResult
	// FairShareConfig / FairShareResult: §2.3 fair-share claim (FIFO vs
	// DRR gateways on the ACK path).
	FairShareConfig = experiments.FairShareConfig
	FairShareResult = experiments.FairShareResult
	// TwoWayConfig / TwoWayResult: two-way traffic extension ([22]).
	TwoWayConfig = experiments.TwoWayConfig
	TwoWayResult = experiments.TwoWayResult
	// SmoothStartConfig / SmoothStartResult: slow-start overshoot
	// comparison against the paper's companion refinement ([21]).
	SmoothStartConfig = experiments.SmoothStartConfig
	SmoothStartResult = experiments.SmoothStartResult
	// BurstyConfig / BurstyResult: Gilbert-Elliott correlated-loss
	// sweep (the paper's [18] loss regime).
	BurstyConfig = experiments.BurstyConfig
	BurstyResult = experiments.BurstyResult
	// AblationResult: RR design-choice matrix.
	AblationResult = experiments.AblationResult
	// ChaosConfig / ChaosResult: seeded-random fault sweep with runtime
	// invariant checking; ChaosCase and ChaosBundle are the replayable
	// units behind repro bundles.
	ChaosConfig = experiments.ChaosConfig
	ChaosResult = experiments.ChaosResult
	ChaosCase   = experiments.ChaosCase
	ChaosBundle = experiments.Bundle
	// FaultPlan is a serializable fault schedule (link flaps, reordering,
	// duplication, corruption, ACK compression) for a netem topology.
	FaultPlan = faults.PlanSpec
	// InvariantViolation is one runtime TCP-invariant breach.
	InvariantViolation = invariant.Violation
)

// RunFigure5 regenerates one Figure 5 panel.
func RunFigure5(cfg Figure5Config) (*Figure5Result, error) { return experiments.Figure5(cfg) }

// RunFigure6 regenerates the Figure 6 panels.
func RunFigure6(cfg Figure6Config) (*Figure6Result, error) { return experiments.Figure6(cfg) }

// RunFigure7 regenerates the Figure 7 sweep.
func RunFigure7(cfg Figure7Config) (*Figure7Result, error) { return experiments.Figure7(cfg) }

// RunTable5 regenerates the Table 5 fairness matrix.
func RunTable5(cfg Table5Config) (*Table5Result, error) { return experiments.Table5(cfg) }

// RunAckLoss runs the §2.3 ACK-loss robustness sweep.
func RunAckLoss(cfg AckLossConfig) (*AckLossResult, error) { return experiments.AckLoss(cfg) }

// RunFairShare runs the §2.3 fair-share gateway comparison.
func RunFairShare(cfg FairShareConfig) (*FairShareResult, error) {
	return experiments.FairShare(cfg)
}

// RunTwoWay runs the two-way-traffic extension experiment.
func RunTwoWay(cfg TwoWayConfig) (*TwoWayResult, error) {
	return experiments.TwoWay(cfg)
}

// RunSmoothStart runs the slow-start overshoot comparison.
func RunSmoothStart(cfg SmoothStartConfig) (*SmoothStartResult, error) {
	return experiments.SmoothStart(cfg)
}

// RunBursty runs the Gilbert-Elliott correlated-loss sweep.
func RunBursty(cfg BurstyConfig) (*BurstyResult, error) {
	return experiments.Bursty(cfg)
}

// --- parallel sweeps and the unified Experiment API ---

type (
	// SweepJob is one independent simulation run inside a sweep.
	SweepJob = sweep.Job
	// SweepConfig parameterizes a RunSweep call.
	SweepConfig = sweep.Config
	// Experiment is the unified interface every experiment runner
	// implements: Name, Jobs, Reduce.
	Experiment = experiments.Experiment
	// ExperimentOptions carries the CLI-facing knobs shared across
	// experiments; zero values mean "experiment default".
	ExperimentOptions = experiments.Options
	// ExperimentRunOptions controls execution (worker count, progress).
	ExperimentRunOptions = experiments.RunOptions
	// ExperimentResult is a structured result with a text rendering.
	ExperimentResult = experiments.Renderable
	// ExperimentRegistration is one named experiment in the registry.
	ExperimentRegistration = experiments.Registration
	// ProgressSink renders sweep progress events as a status line.
	ProgressSink = telemetry.ProgressSink
	// SweepJournal is a sweep checkpoint: an append-only NDJSON log of
	// completed job results that lets an interrupted sweep resume.
	SweepJournal = sweep.Journal
	// ExperimentResultCodec is implemented by experiments whose job
	// results survive a JSON round-trip — the prerequisite for
	// checkpoint/resume.
	ExperimentResultCodec = experiments.ResultCodec
)

// RunSweep fans the jobs out across a worker pool and returns their
// results in job-index order, byte-identical to sequential execution;
// see internal/sweep for the determinism contract.
func RunSweep(cfg SweepConfig, jobs []SweepJob) ([]any, error) { return sweep.Run(cfg, jobs) }

// DeriveSweepSeed returns the deterministic per-job seed the sweep
// engine uses for the job at index under a master seed.
func DeriveSweepSeed(seed int64, index int) int64 { return sweep.DeriveSeed(seed, index) }

// OpenSweepJournal opens (resume) or creates the checkpoint journal for
// the sweep identified by (cfg.Name, cfg.Seed, jobs) under dir; decode
// reconstructs one job's result from its stored JSON. Hand the journal
// to RunSweep via SweepConfig.Checkpoint and Close it afterwards.
func OpenSweepJournal(dir string, cfg SweepConfig, jobs []SweepJob, resume bool,
	decode func([]byte) (any, error)) (*SweepJournal, error) {
	return sweep.OpenJournal(dir, cfg, jobs, resume, decode)
}

// Experiments lists every registered experiment in canonical order.
func Experiments() []ExperimentRegistration { return experiments.Experiments() }

// BuildExperiment constructs a registered experiment by name.
func BuildExperiment(name string, o ExperimentOptions) (Experiment, error) {
	return experiments.Build(name, o)
}

// RunExperiment executes an experiment end to end: expand jobs, sweep
// them across the worker pool, reduce the ordered results.
func RunExperiment(e Experiment, opt ExperimentRunOptions) (ExperimentResult, error) {
	return experiments.Run(e, opt)
}

// NewProgressSink returns a telemetry sink rendering sweep progress to
// w (typically os.Stderr).
func NewProgressSink(w io.Writer) *ProgressSink { return telemetry.NewProgressSink(w) }

// --- user-defined scenarios ---

type (
	// Scenario is a JSON-described simulation: topology, losses, flows.
	Scenario = scenario.Spec
	// ScenarioReport is a completed scenario's per-flow outcome.
	ScenarioReport = scenario.Report
)

// LoadScenario parses a scenario from JSON.
func LoadScenario(r io.Reader) (*Scenario, error) { return scenario.Load(r) }

// LoadScenarioFile parses a scenario from a file.
func LoadScenarioFile(path string) (*Scenario, error) { return scenario.LoadFile(path) }

// RunAblation runs the RR design ablation matrix.
func RunAblation(drops int) (*AblationResult, error) { return experiments.Ablation(drops) }

// --- chaos / robustness ---

// RunChaos sweeps seeded-random fault schedules across the TCP
// variants under runtime invariant checking.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) { return experiments.Chaos(cfg) }

// RunChaosCase replays one chaos case (e.g. from a repro bundle).
func RunChaosCase(c ChaosCase) (*experiments.ChaosOutcome, error) {
	return experiments.RunChaosCase(c)
}

// LoadChaosBundle reads a repro bundle written by a chaos sweep.
func LoadChaosBundle(path string) (*ChaosBundle, error) { return experiments.LoadBundle(path) }

// ReplayChaosBundle re-runs a bundle's case and verifies the stored
// violation reproduces exactly.
func ReplayChaosBundle(b *ChaosBundle) (*experiments.ChaosOutcome, error) {
	return experiments.ReplayBundle(b)
}
