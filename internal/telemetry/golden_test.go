package telemetry_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rrtcp/internal/experiments"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

const fig5Golden = "fig5_drops3.ndjson"

// fig5EventLog runs a cut-down `rrsim fig5 -drops 3 -events` — RR and
// NewReno, 40 packets, losses from packet 20, seed 1 — and returns the
// NDJSON event log: every layer's events (senders, RR phases, receiver,
// queues, links, the loss injector, gauge samples) in a few hundred
// lines.
func fig5EventLog(t *testing.T, workers int) []byte {
	t.Helper()
	var log bytes.Buffer
	sink := telemetry.NewNDJSONSink(&log)
	_, err := experiments.Run(experiments.NewFigure5Experiment(experiments.Figure5Config{
		Drops:           3,
		FirstDropPacket: 20,
		TransferPackets: 40,
		Variants:        []workload.Kind{workload.RR, workload.NewReno},
		Seed:            1,
		Telemetry:       telemetry.NewBus(sink),
		SampleEvery:     250 * time.Millisecond,
	}), experiments.RunOptions{Parallel: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return log.Bytes()
}

func readGolden(t *testing.T) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", fig5Golden))
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	return want
}

// requireSameLog fails with the first differing line, not a 60 KB dump.
func requireSameLog(t *testing.T, what string, got, golden []byte) {
	t.Helper()
	if bytes.Equal(got, golden) {
		return
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(golden, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s differs from the golden at line %d\n got: %s\nwant: %s", what, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s has %d lines, golden %d", what, len(g)-1, len(w)-1)
}

// TestFig5EventLogGolden pins an experiment's full event log, byte for
// byte: the simulation (what happened, in which order, at which
// nanosecond) and its encoding both have to stay put. Regenerate with
// `go test ./internal/telemetry -run Golden -update` after an
// intentional change to either.
func TestFig5EventLogGolden(t *testing.T) {
	got := fig5EventLog(t, 1)
	if *telemetry.UpdateGolden {
		if err := os.WriteFile(filepath.Join("testdata", fig5Golden), got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readGolden(t)
	requireSameLog(t, "event log", got, want)
	if par := fig5EventLog(t, 4); !bytes.Equal(par, want) {
		t.Fatal("event log at 4 workers differs from the golden (worker-count determinism)")
	}
}

// TestFig5GoldenRoundTrip decodes the golden log back into the bus
// events it was written from and re-encodes them: the result must be
// the golden again. This is the property rrtrace rests on — every
// subcommand feeds the decoded events to the live sinks, and filter
// re-emits them through NDJSONSink.
func TestFig5GoldenRoundTrip(t *testing.T) {
	want := readGolden(t)
	ring := telemetry.NewRing(0)
	stats, err := telemetry.DecodeNDJSON(bytes.NewReader(want), ring)
	if err != nil || stats.Skipped > 0 || stats.Unknown > 0 {
		t.Fatalf("decode: err=%v stats=%+v", err, stats)
	}
	events := ring.Events()
	if lines := bytes.Count(want, []byte("\n")); len(events) != lines || lines < 500 {
		t.Fatalf("decoded %d events from %d lines (golden should hold at least 500)", len(events), lines)
	}
	var again bytes.Buffer
	sink := telemetry.NewNDJSONSink(&again)
	telemetry.Replay(events, sink)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	requireSameLog(t, "re-encoded log", again.Bytes(), want)
}
