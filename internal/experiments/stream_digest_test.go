package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

const streamDigestFile = "fig5_stream_digests.json"

// fig5Stream runs figure 5 for all nine variants and returns the whole
// republished event stream: one run per variant, each restarting at t=0.
func fig5Stream(t *testing.T, drops, workers int) []telemetry.Event {
	t.Helper()
	ring := telemetry.NewRing(0)
	_, err := Run(NewFigure5Experiment(Figure5Config{
		Drops:     drops,
		Variants:  workload.Kinds(),
		Telemetry: telemetry.NewBus(ring),
	}), RunOptions{Parallel: workers})
	if err != nil {
		t.Fatal(err)
	}
	return ring.Events()
}

// fig5StreamDigests cuts fig5Stream into one segment per variant and
// returns the sha256 of each segment's NDJSON encoding, keyed
// "<variant>/drops<n>".
func fig5StreamDigests(t *testing.T, drops, workers int) map[string]string {
	t.Helper()
	events := fig5Stream(t, drops, workers)
	kinds := workload.Kinds()
	out := make(map[string]string, len(kinds))
	h := sha256.New()
	sink := telemetry.NewNDJSONSink(h)
	var at telemetry.Segmenter
	closeSegment := func() {
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if at.Seg >= len(kinds) {
			t.Fatalf("drops=%d: more stream segments than variants", drops)
		}
		out[fmt.Sprintf("%v/drops%d", kinds[at.Seg], drops)] = fmt.Sprintf("%x", h.Sum(nil))
		h.Reset()
	}
	for _, ev := range events {
		if at.Regressed(&ev) {
			closeSegment()
		}
		at.Advance(&ev)
		sink.Emit(ev)
	}
	closeSegment()
	if len(out) != len(kinds) {
		t.Fatalf("drops=%d: %d stream segments for %d variants", drops, len(out), len(kinds))
	}
	return out
}

// TestFig5StreamDigestsPerVariant pins the full event stream — every
// layer's events, in order, to the nanosecond — of each of the nine
// senders recovering from 3, 6 and 8 drops in one window. Result tables
// cannot see two events swapping inside one ACK; this can. Regenerate
// with `go test ./internal/experiments -run StreamDigests -update` after
// an intended change to what a sender does or emits.
func TestFig5StreamDigestsPerVariant(t *testing.T) {
	path := filepath.Join("testdata", streamDigestFile)
	got := map[string]string{}
	for _, drops := range []int{3, 6, 8} {
		seq := fig5StreamDigests(t, drops, 1)
		for k, v := range fig5StreamDigests(t, drops, 4) {
			if seq[k] != v {
				t.Errorf("%s: stream at 4 workers differs from 1 worker", k)
			}
		}
		for k, v := range seq {
			got[k] = v
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("table has %d entries, the run produced %d", len(want), len(got))
	}
	for k, v := range got {
		if want[k] != v {
			t.Errorf("%s: event stream sha256 %s, table has %s", k, v, want[k])
		}
	}
}
