package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rrtcp/internal/experiments"
	"rrtcp/internal/scenario"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// TestLogReproducesLiveOutputs is the proof that rrsim needs no live
// renderer. Each run publishes to an NDJSON log, a SpanSink, a
// SeriesSink and a MetricsSink on one bus; rrtrace export and rrtrace
// metrics over the written log must print the live sinks' Chrome trace
// and registry snapshot byte for byte. The experiments run at workers 1
// and 4; a scenario run has no worker pool, and samples its gauges
// every 10 ms as rrsim run does. The Chrome traces must also be valid,
// with recovery and probe spans and the sampled cwnd counter tracks.
func TestLogReproducesLiveOutputs(t *testing.T) {
	experiment := func(name string, o experiments.Options) func(*telemetry.Bus, int) error {
		return func(bus *telemetry.Bus, workers int) error {
			o.Telemetry = bus
			e, err := experiments.Build(name, o)
			if err == nil {
				_, err = experiments.Run(e, experiments.RunOptions{Parallel: workers})
			}
			return err
		}
	}
	burstloss := func(bus *telemetry.Bus, _ int) error {
		spec, err := scenario.LoadFile("../../examples/scenarios/burstloss.json")
		if err == nil {
			spec.Telemetry, spec.SampleEvery = bus, 10*time.Millisecond
			_, err = spec.Run()
		}
		return err
	}
	for _, tc := range []struct {
		name    string
		produce func(bus *telemetry.Bus, workers int) error
		workers []int
		trace   []string // what the Chrome trace must hold
	}{
		{"fig5", experiment("fig5", experiments.Options{Variants: workload.Kinds()}), []int{1, 4},
			[]string{`"recovery"`, `"probe"`, `"ph":"C"`, "cwnd"}},
		// The budget trips three of the four cells; all four overflow
		// their bounded event store, so the log holds both kinds of
		// stress report.
		{"stress", experiment("stress", experiments.Options{Cells: 4, MaxEvents: 26000}), []int{1, 4},
			nil},
		{"run", burstloss, []int{1},
			[]string{`"recovery"`, `"ph":"C"`, "cwnd"}},
	} {
		for _, workers := range tc.workers {
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				dir := t.TempDir()
				logPath := filepath.Join(dir, "events.ndjson")
				f, err := os.Create(logPath)
				if err != nil {
					t.Fatal(err)
				}
				nd := telemetry.NewNDJSONSink(f)
				spans, series, ms := telemetry.NewSpanSink(), telemetry.NewSeriesSink(), telemetry.NewMetricsSink()
				if err := tc.produce(telemetry.NewBus(nd, spans, series, ms), workers); err != nil {
					t.Fatal(err)
				}
				if err := nd.Close(); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				var live bytes.Buffer
				if err := telemetry.WriteChromeTrace(&live, spans.Spans(), series.Series()); err != nil {
					t.Fatal(err)
				}
				snapshot := ms.R.Snapshot()
				if snapshot == "" {
					t.Fatal("the run published nothing")
				}

				tracePath := filepath.Join(dir, "trace.json")
				if _, err := capture(t, func() error { return run([]string{"export", "-out", tracePath, logPath}) }); err != nil {
					t.Fatalf("rrtrace export: %v", err)
				}
				trace, err := os.ReadFile(tracePath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(trace, live.Bytes()) {
					t.Fatalf("rrtrace export: %d bytes, the live trace %d", len(trace), live.Len())
				}
				metrics, err := capture(t, func() error { return run([]string{"metrics", logPath}) })
				if err != nil {
					t.Fatalf("rrtrace metrics: %v", err)
				}
				if metrics != snapshot {
					t.Fatalf("rrtrace metrics differs from the live snapshot\n--- replayed ---\n%s--- live ---\n%s", metrics, snapshot)
				}

				if err := telemetry.ValidateChromeTrace(trace); err != nil {
					t.Fatalf("exported trace invalid: %v", err)
				}
				for _, want := range tc.trace {
					if !bytes.Contains(trace, []byte(want)) {
						t.Errorf("trace missing %s", want)
					}
				}
			})
		}
	}
}

// A full stdout fails every printing command instead of losing its
// output silently. /dev/full accepts the open and fails every write.
func TestFullStdoutFails(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("/dev/full not available")
	}
	defer full.Close()
	old := os.Stdout
	os.Stdout = full
	defer func() { os.Stdout = old }()
	for _, cmd := range []string{"summary", "flows", "filter", "timeline", "spans", "metrics", "export"} {
		if err := run([]string{cmd, fig5Log}); err == nil || !strings.Contains(err.Error(), "no space left") {
			t.Errorf("%s to a full stdout: got %v, want the write error", cmd, err)
		}
	}
}
