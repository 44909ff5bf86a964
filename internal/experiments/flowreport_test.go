package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rrtcp/internal/workload"
)

// The flow-analytics reduction rides the sweep's byte-determinism
// contract: with flow accounting enabled, the rendered report (and the
// JSON carrying the merged histograms) must be identical at any worker
// count because per-job summaries merge in job order.
func TestFigure5FlowReportParallelIdentical(t *testing.T) {
	build := func() Experiment {
		return NewFigure5Experiment(Figure5Config{
			Variants:      []workload.Kind{workload.NewReno, workload.RR},
			FlowStats:     true,
			FlowExemplars: 2,
		})
	}
	assertParallelIdentical(t, build)

	res, err := Run(build(), RunOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	f5 := res.(*Figure5Result)
	if f5.Flows == nil {
		t.Fatal("FlowStats run produced no flow summary")
	}
	report := f5.FlowReport()
	if report.Completed == 0 || len(report.Variants) != 2 {
		t.Fatalf("flow report incomplete: %+v", report)
	}
	if !strings.Contains(res.Render(), "Flow report:") {
		t.Fatalf("rendering missing the flow report:\n%s", res.Render())
	}
	var csv bytes.Buffer
	if err := report.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(csv.String(), "\n"); got != 3 { // header + 2 variants
		t.Fatalf("flow CSV has %d lines, want 3:\n%s", got, csv.String())
	}
}

func TestChaosFlowReportParallelIdentical(t *testing.T) {
	assertParallelIdentical(t, func() Experiment {
		return NewChaosExperiment(ChaosConfig{
			Schedules:     3,
			Seed:          5,
			Variants:      []workload.Kind{workload.SACK, workload.RR},
			Bytes:         50 * 1000,
			Horizon:       30 * time.Second,
			FlowStats:     true,
			FlowExemplars: 2,
		})
	})
}

// The stress soak's flow summary, merged from cell tables, must be
// worker-count invariant too, and present even
// though cells run under bounded telemetry (the table subscribes ahead
// of the sampling sink, so accounting stays exact under overload).
func TestStressFlowReportParallelIdentical(t *testing.T) {
	run := func(workers int) *StressResult {
		cfg := smallStress()
		cfg.FlowStats = true
		cfg.FlowExemplars = 2
		res, err := Run(NewStressExperiment(cfg), RunOptions{Parallel: workers})
		if err != nil {
			t.Fatalf("stress (parallel=%d): %v", workers, err)
		}
		return res.(*StressResult)
	}
	seq, par := run(1), run(4)
	if seq.Render() != par.Render() {
		t.Fatalf("stress flow report differs across worker counts:\n--- sequential ---\n%s--- parallel ---\n%s",
			seq.Render(), par.Render())
	}
	if seq.Flows == nil || seq.Flows.Completed == 0 {
		t.Fatalf("stress flow summary missing: %+v", seq.Flows)
	}
	if !strings.Contains(seq.Render(), "Flow report:") {
		t.Fatalf("stress rendering missing flow report:\n%s", seq.Render())
	}
}

// Without FlowStats the layer is absent: no summary on the result, a
// zero report from the accessor, and no flow section in the rendering.
func TestFlowReportAbsentWhenDisabled(t *testing.T) {
	res, err := Run(NewFigure5Experiment(Figure5Config{
		Variants: []workload.Kind{workload.NewReno},
	}), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f5 := res.(*Figure5Result)
	if f5.Flows != nil {
		t.Fatalf("flow summary present without FlowStats: %+v", f5.Flows)
	}
	if r := f5.FlowReport(); r.Started != 0 || len(r.Variants) != 0 {
		t.Fatalf("disabled FlowReport non-zero: %+v", r)
	}
	if strings.Contains(res.Render(), "Flow report:") {
		t.Fatalf("rendering has a flow report without FlowStats:\n%s", res.Render())
	}
}
