package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rrtcp/internal/faults"
	"rrtcp/internal/invariant"
	"rrtcp/internal/netem"
	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/telemetry/flowstats"
	"rrtcp/internal/workload"
)

// ChaosCase is one fully self-describing chaos run: a variant, a seed,
// a transfer, and a fault plan. Because every random draw inside the
// run derives from Seed and the plan is embedded, a ChaosCase replays
// bit-identically — it is the unit a repro bundle stores.
type ChaosCase struct {
	Variant string          `json:"variant"`
	Seed    int64           `json:"seed"`
	Bytes   int64           `json:"bytes"`
	Horizon faults.Duration `json:"horizon"`
	Plan    faults.PlanSpec `json:"plan"`
	// Breakage selects a deliberately broken sender for checker
	// self-tests: "" (healthy), "wedge" (stops transmitting mid-flow),
	// or "actnum" (reports an impossible in-flight measure).
	Breakage string `json:"breakage,omitempty"`
}

// ChaosOutcome is what one case produced.
type ChaosOutcome struct {
	// Finished reports whether the transfer completed inside the horizon.
	Finished bool `json:"finished"`
	// Violations holds every invariant breach the checker detected.
	Violations []invariant.Violation `json:"violations,omitempty"`
	// Events is the tail of the run's event stream (the repro ring),
	// for a repro bundle. It is populated only when Violations is
	// non-empty: a healthy run has nothing to reproduce.
	Events []telemetry.Event `json:"-"`
}

// chaosRingCap is how many trailing events a repro bundle carries.
const chaosRingCap = 512

// brokenWedge wraps a healthy strategy but, once the transfer passes
// the wedge point, consumes every new ACK without ever transmitting
// again: the flight drains, the retransmission timer is never re-armed,
// and the connection silently deadlocks. The invariant checker's
// watchdog must flag it as "stall-no-timer".
type brokenWedge struct {
	inner   tcp.Strategy
	wedgeAt int64
}

func (b *brokenWedge) Name() string { return b.inner.Name() + "+wedge" }

func (b *brokenWedge) OnAck(s *tcp.Sender, ev tcp.AckEvent) {
	if !ev.IsDup && s.SndUna() >= b.wedgeAt {
		s.AdvanceUna(ev.AckNo)
		return
	}
	b.inner.OnAck(s, ev)
}

func (b *brokenWedge) OnTimeout(s *tcp.Sender) { b.inner.OnTimeout(s) }

// newBreakage builds the deliberately broken strategy for a case, or
// nil for a healthy run.
func newBreakage(c ChaosCase, healthy tcp.Strategy) (tcp.Strategy, error) {
	switch c.Breakage {
	case "":
		return nil, nil
	case "wedge":
		return &brokenWedge{inner: healthy, wedgeAt: c.Bytes / 2}, nil
	case "actnum":
		return &liarStrategy{Strategy: healthy}, nil
	default:
		return nil, fmt.Errorf("chaos: unknown breakage %q", c.Breakage)
	}
}

// liarStrategy delegates all behavior but implements the checker's
// RecoveryProbe with an impossible Actnum.
type liarStrategy struct {
	tcp.Strategy
}

func (l *liarStrategy) InRecovery() bool { return true }
func (l *liarStrategy) Actnum() int      { return -1 }

// RunChaosCase executes one case and reports what happened, with the
// tail of its event stream when it violated an invariant. The run is
// deterministic in the case value: identical inputs produce identical
// outcomes, which is what makes repro bundles replayable.
func RunChaosCase(c ChaosCase) (*ChaosOutcome, error) {
	ring := telemetry.NewRing(chaosRingCap)
	out, err := runChaosCase(c, &scenario.World{}, []telemetry.Sink{ring})
	if err != nil {
		return nil, err
	}
	if len(out.Violations) > 0 {
		out.Events = ring.Events()
	}
	return &out, nil
}

// runChaosCase runs the case on w, rebuilt first, with sinks subscribed
// to the run's private bus ahead of the invariant checker. The outcome
// carries no event tail and does not alias w.
func runChaosCase(c ChaosCase, w *scenario.World, sinks []telemetry.Sink) (ChaosOutcome, error) {
	flow, checker, err := chaosWorld(w, c, sinks)
	if err != nil {
		return ChaosOutcome{}, err
	}
	w.Run(c.Horizon.D())
	return ChaosOutcome{Finished: flow.Sender.Done(), Violations: checker.Violations()}, nil
}

// chaosWorld rebuilds w as the case's world, ready to run: one flow
// under the fault plan and the invariant checker.
func chaosWorld(w *scenario.World, c ChaosCase, sinks []telemetry.Sink) (flow *workload.Flow, checker *invariant.Checker, err error) {
	kind, err := workload.ParseKind(c.Variant)
	if err != nil {
		return nil, nil, err
	}
	if c.Bytes <= 0 {
		return nil, nil, fmt.Errorf("chaos: transfer size must be positive, got %d", c.Bytes)
	}
	if c.Horizon <= 0 {
		return nil, nil, fmt.Errorf("chaos: horizon must be positive, got %v", time.Duration(c.Horizon))
	}

	if err = w.Rebuild(c.Seed, &scenario.Spec{}); err != nil { // Table 3, one slot
		return nil, nil, err
	}
	sched := w.Sched
	bus := telemetry.NewBus(sinks...)
	spec := workload.FlowSpec{
		Kind:      kind,
		Bytes:     c.Bytes,
		Window:    64,
		Telemetry: bus,
		NoTrace:   true, // nothing reads flow.Trace; the bus carries every event
		OnDone:    sched.Stop,
	}
	if c.Breakage != "" {
		healthy, err := spec.NewStrategy()
		if err != nil {
			return nil, nil, err
		}
		broken, err := newBreakage(c, healthy)
		if err != nil {
			return nil, nil, err
		}
		spec.Strategy = broken
	}
	if flow, err = w.Install(spec); err != nil {
		return nil, nil, err
	}
	if checker, err = supervise(w, bus, &c.Plan, sched.DeriveRand("faults")); err != nil {
		return nil, nil, err
	}
	// Stop the run at the first violation so a repro ring's tail ends
	// at the failure, making bundles maximally informative.
	checker.OnViolation = func(invariant.Violation) { sched.Stop() }
	return flow, checker, nil
}

// ChaosConfig parameterizes a chaos sweep: N seeded-random fault
// schedules, each run against every variant.
type ChaosConfig struct {
	// Schedules is the number of random fault schedules (default 100).
	Schedules int `json:"schedules"`
	// Seed drives schedule generation and per-case seeds (default 1).
	Seed int64 `json:"seed"`
	// Variants to sweep (default: all).
	Variants []workload.Kind `json:"variants"`
	// Bytes is the per-flow transfer size (default 200 kB).
	Bytes int64 `json:"bytes"`
	// Horizon bounds each run in simulated time (default 120 s).
	Horizon sim.Time `json:"horizonNs"`
	// BundleDir, when set, receives a repro bundle per violating case.
	BundleDir string `json:"bundleDir,omitempty"`
	// FlowStats enables the aggregate flow-analytics layer: each case
	// folds its flow lifecycle events into a flowstats.FlowTable and the
	// result carries the merged Summary (see FlowReport), byte-identical
	// at any worker count.
	FlowStats bool `json:"flowStats,omitempty"`
	// FlowExemplars caps the reservoir of exemplar flows each case's
	// table retains in full detail (0: aggregates only).
	FlowExemplars int `json:"flowExemplars,omitempty"`
}

func (c *ChaosConfig) fillDefaults() {
	if c.Schedules <= 0 {
		c.Schedules = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Variants) == 0 {
		c.Variants = workload.Kinds()
	}
	if c.Bytes <= 0 {
		c.Bytes = 200 * 1000
	}
	if c.Horizon <= 0 {
		c.Horizon = 120 * time.Second
	}
}

// ChaosVariantStats aggregates one variant's results across schedules.
type ChaosVariantStats struct {
	Variant  workload.Kind `json:"variant"`
	Runs     int           `json:"runs"`
	Finished int           `json:"finished"`
	Violated int           `json:"violated"`
}

// ChaosFailure pairs a violating case with its first violation (and the
// bundle path, when bundles are enabled).
type ChaosFailure struct {
	Case      ChaosCase           `json:"case"`
	Violation invariant.Violation `json:"violation"`
	Bundle    string              `json:"bundle,omitempty"`
}

// ChaosResult is the full sweep outcome.
type ChaosResult struct {
	Config   ChaosConfig         `json:"config"`
	Stats    []ChaosVariantStats `json:"stats"`
	Failures []ChaosFailure      `json:"failures,omitempty"`
	// Flows is the merged flow-analytics summary across cases, set when
	// Config.FlowStats is on.
	Flows *flowstats.Summary `json:"flows,omitempty"`
}

// FlowReport computes the flow-analytics report, or a zero report when
// flow stats were not enabled.
func (r *ChaosResult) FlowReport() flowstats.Report { return flowReport(r.Flows) }

// Violated reports the total number of violating runs.
func (r *ChaosResult) Violated() int { return len(r.Failures) }

// NewChaosExperiment fills defaults and returns the sweep of the
// config's cases (chaosCases), one job each, every run watched by the
// invariant checker.
func NewChaosExperiment(cfg ChaosConfig) Experiment {
	cfg.fillDefaults()
	return newChaosExperiment(cfg, chaosCases(cfg))
}

// chaosCases draws a sweep's cases from the master randomness of cfg,
// whose defaults are filled: each schedule — a fault plan and a case
// seed — once, run against every variant, so a violation isolates to
// the variant rather than the weather. The cases are fixed before any
// worker starts, which keeps the sweep deterministic at any worker
// count.
func chaosCases(cfg ChaosConfig) []ChaosCase {
	master := rand.New(rand.NewSource(cfg.Seed))
	dcfg := netem.PaperDropTailConfig(1)
	cases := make([]ChaosCase, 0, cfg.Schedules*len(cfg.Variants))
	for s := 0; s < cfg.Schedules; s++ {
		plan := faults.RandomPlanSpec(master, cfg.Horizon, dcfg)
		caseSeed := master.Int63()
		for _, v := range cfg.Variants {
			cases = append(cases, ChaosCase{
				Variant: v.String(),
				Seed:    caseSeed,
				Bytes:   cfg.Bytes,
				Horizon: faults.Duration(cfg.Horizon),
				Plan:    plan,
			})
		}
	}
	return cases
}

// chaosOut is one case's outcome; the event tail is present only for
// violating runs, where a bundle may need it.
type chaosOut struct {
	Finished   bool
	Violations []invariant.Violation
	Events     []telemetry.Event
	Flow       *flowstats.Summary `json:",omitempty"`
}

// newChaosExperiment sweeps cases, case i being variant i mod
// len(cfg.Variants) of schedule i / len(cfg.Variants), under its own
// seed. A job records no event tail: only a case that violates an
// invariant runs again, through RunChaosCase, to capture the tail its
// bundle carries, and that capture must reproduce the sweep run's
// first violation or the job fails. Per-variant stats accumulate in
// case order and repro bundles are written by fold, never from a
// worker goroutine.
func newChaosExperiment(cfg ChaosConfig, cases []ChaosCase) Experiment {
	variants := len(cfg.Variants)
	cells, seedOf := ownSeeds(len(cases), func(i int) int64 { return cases[i].Seed })
	return &grid[int, chaosOut]{
		name:  "chaos",
		cells: cells,
		seeds: seedOf,
		label: func(i int) string { return fmt.Sprintf("s%d %s", i/variants, cases[i].Variant) },
		run: func(w *scenario.World, i int, seed int64) (chaosOut, error) {
			tally := newFlowTally(cfg.FlowStats, cfg.FlowExemplars, seed)
			ran, err := runChaosCase(cases[i], w, tally.sinks())
			if err != nil {
				return chaosOut{}, err
			}
			out := chaosOut{Finished: ran.Finished, Violations: ran.Violations, Flow: tally.summary()}
			if len(out.Violations) > 0 {
				capture, err := rerun(cases[i], out.Violations[0], "capture run", "sweep run")
				if err != nil {
					return chaosOut{}, err
				}
				out.Events = capture.Events
			}
			return out, nil
		},
		fold: func(outs [][]chaosOut) (Renderable, error) {
			res := &ChaosResult{Config: cfg, Stats: make([]ChaosVariantStats, variants)}
			for i, o := range outs {
				out, st := o[0], &res.Stats[i%variants]
				st.Variant = cfg.Variants[i%variants]
				st.Runs++
				if out.Finished {
					st.Finished++
				}
				mergeFlows(&res.Flows, out.Flow)
				if len(out.Violations) == 0 {
					continue
				}
				st.Violated++
				f := ChaosFailure{Case: cases[i], Violation: out.Violations[0]}
				if cfg.BundleDir != "" {
					path, err := WriteBundle(cfg.BundleDir, &Bundle{
						Case:      cases[i],
						Violation: out.Violations[0],
						Events:    out.Events,
					})
					if err != nil {
						return nil, err
					}
					f.Bundle = path
				}
				res.Failures = append(res.Failures, f)
			}
			return res, nil
		},
		Config: cfg,
	}
}

// Render formats the sweep as a table.
func (r *ChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos sweep: %d schedules x %d variants (seed %d, %v horizon, %d-byte transfers)\n",
		r.Config.Schedules, len(r.Config.Variants), r.Config.Seed, r.Config.Horizon, r.Config.Bytes)
	fmt.Fprintf(&b, "%-10s %8s %10s %10s\n", "variant", "runs", "finished", "violated")
	for _, st := range r.Stats {
		fmt.Fprintf(&b, "%-10s %8d %10d %10d\n", st.Variant, st.Runs, st.Finished, st.Violated)
	}
	if len(r.Failures) == 0 {
		fmt.Fprintf(&b, "no invariant violations\n")
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "VIOLATION %s seed=%d: %s", f.Case.Variant, f.Case.Seed, f.Violation)
		if f.Bundle != "" {
			fmt.Fprintf(&b, " (bundle: %s)", f.Bundle)
		}
		b.WriteByte('\n')
	}
	if r.Flows != nil {
		b.WriteByte('\n')
		b.WriteString(r.Flows.Report().Render())
	}
	return b.String()
}

// Bundle is a replayable record of an invariant violation: the exact
// case (variant, seed, plan — everything the run's determinism hangs
// off), the violation it produced, and the tail of the event stream
// leading up to it.
type Bundle struct {
	Case      ChaosCase           `json:"case"`
	Violation invariant.Violation `json:"violation"`
	Events    []telemetry.Event   `json:"events"`
}

// WriteBundle stores a bundle as JSON under dir, named by variant and
// seed, creating the directory as needed. It returns the file path.
func WriteBundle(dir string, b *Bundle) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("chaos: bundle dir: %w", err)
	}
	name := fmt.Sprintf("chaos-%s-%d.json", b.Case.Variant, b.Case.Seed)
	if b.Case.Breakage != "" {
		name = fmt.Sprintf("chaos-%s-%s-%d.json", b.Case.Variant, b.Case.Breakage, b.Case.Seed)
	}
	path := filepath.Join(dir, name)
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", fmt.Errorf("chaos: encode bundle: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("chaos: write bundle: %w", err)
	}
	return path, nil
}

// LoadBundle reads a bundle written by WriteBundle.
func LoadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: read bundle: %w", err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("chaos: decode bundle %s: %w", path, err)
	}
	return &b, nil
}

// ReplayBundle re-runs a bundle's case and verifies the stored
// violation reproduces: same rule, same flow, same simulated instant.
// It returns the fresh outcome.
func ReplayBundle(b *Bundle) (*ChaosOutcome, error) {
	return rerun(b.Case, b.Violation, "replay", "stored")
}

// rerun runs c through RunChaosCase and checks that its first violation
// is want: the same rule, flow and simulated instant. run and wantName
// label the two sides in the error.
func rerun(c ChaosCase, want invariant.Violation, run, wantName string) (*ChaosOutcome, error) {
	out, err := RunChaosCase(c)
	if err != nil {
		return nil, err
	}
	if len(out.Violations) == 0 {
		return out, fmt.Errorf("chaos: %s produced no violation (%s: %s)", run, wantName, want)
	}
	if got := out.Violations[0]; got.Rule != want.Rule || got.Flow != want.Flow || got.At != want.At {
		return out, fmt.Errorf("chaos: %s diverged: got %s, %s %s", run, got, wantName, want)
	}
	return out, nil
}
