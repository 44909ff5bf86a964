// Experiment surface of the rrtcp facade: analytic models, the
// table/figure runners, the experiment registry, scenarios, and chaos
// repro bundles.
package rrtcp

import (
	"io"

	"rrtcp/internal/experiments"
	"rrtcp/internal/model"
	"rrtcp/internal/scenario"
	"rrtcp/internal/telemetry"
)

// --- analytic models (paper §4) ---

// SqrtModelWindow returns the Mathis et al. bound C/sqrt(p) in packets.
func SqrtModelWindow(p, c float64) float64 { return model.SqrtWindow(p, c) }

// CAckEveryPacket is the Mathis constant for ACK-every-packet receivers.
const CAckEveryPacket = model.CAckEveryPacket

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
	// ChaosBundle is a chaos sweep's repro bundle: one violating case,
	// replayable byte for byte.
	ChaosBundle = experiments.Bundle
)

// RunFigure5 regenerates one Figure 5 panel.
func RunFigure5(cfg Figure5Config) (*Figure5Result, error) {
	return run[*Figure5Result](experiments.NewFigure5Experiment(cfg))
}

// RunFigure6 regenerates the Figure 6 panels.
func RunFigure6(cfg Figure6Config) (*Figure6Result, error) {
	return run[*Figure6Result](experiments.NewFigure6Experiment(cfg))
}

// RunFigure7 regenerates the Figure 7 sweep.
func RunFigure7(cfg Figure7Config) (*Figure7Result, error) {
	return run[*Figure7Result](experiments.NewFigure7Experiment(cfg))
}

// RunTable5 regenerates the Table 5 fairness matrix.
func RunTable5(cfg Table5Config) (*Table5Result, error) {
	return run[*Table5Result](experiments.NewTable5Experiment(cfg))
}

// RunAckLoss runs the §2.3 ACK-loss robustness sweep.
func RunAckLoss(cfg AckLossConfig) (*AckLossResult, error) {
	return run[*AckLossResult](experiments.NewAckLossExperiment(cfg))
}

// RunFairShare runs the §2.3 fair-share gateway comparison.
func RunFairShare(cfg FairShareConfig) (*FairShareResult, error) {
	return run[*FairShareResult](experiments.NewFairShareExperiment(cfg))
}

// RunTwoWay runs the two-way-traffic extension experiment.
func RunTwoWay(cfg TwoWayConfig) (*TwoWayResult, error) {
	return run[*TwoWayResult](experiments.NewTwoWayExperiment(cfg))
}

// RunSmoothStart runs the slow-start overshoot comparison.
func RunSmoothStart(cfg SmoothStartConfig) (*SmoothStartResult, error) {
	return run[*SmoothStartResult](experiments.NewSmoothStartExperiment(cfg))
}

// RunBursty runs the Gilbert-Elliott correlated-loss sweep.
func RunBursty(cfg BurstyConfig) (*BurstyResult, error) {
	return run[*BurstyResult](experiments.NewBurstyExperiment(cfg))
}

// RunAblation runs the RR design ablation matrix.
func RunAblation(drops int) (*AblationResult, error) {
	return run[*AblationResult](experiments.NewAblationExperiment(drops))
}

// run executes e on the default worker pool and returns its concrete
// result; the worker count never changes a result byte.
func run[R ExperimentResult](e Experiment) (R, error) {
	res, err := experiments.Run(e, experiments.RunOptions{})
	if err != nil {
		var zero R
		return zero, err
	}
	return res.(R), nil
}

// --- the unified Experiment API ---

type (
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
)

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

// Scenario is a JSON-described simulation: topology, losses, flows.
type Scenario = scenario.Spec

// LoadScenarioFile parses a scenario from a file.
func LoadScenarioFile(path string) (*Scenario, error) { return scenario.LoadFile(path) }

// --- chaos repro bundles ---

// LoadChaosBundle reads a repro bundle written by a chaos sweep.
func LoadChaosBundle(path string) (*ChaosBundle, error) { return experiments.LoadBundle(path) }

// ReplayChaosBundle re-runs a bundle's case and verifies the stored
// violation reproduces exactly.
func ReplayChaosBundle(b *ChaosBundle) (*experiments.ChaosOutcome, error) {
	return experiments.ReplayBundle(b)
}
