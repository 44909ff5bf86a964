package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rrtcp/internal/telemetry"
	"rrtcp/internal/telemetry/flowstats"
)

// TestEpisodesAgreeOnFig5Streams counts the recovery episodes of real
// streams four ways — SpanSink's recovery spans, SummarySink's episodes,
// FlowTable's per-variant Episodes and MetricsSink's episode_s samples —
// and requires one answer. The streams are the nine senders recovering
// from 3, 6 and 8 drops in one window (Tahoe's episodes end at the next
// recovery-enter or at flow-done, never at a recovery-exit) and the
// committed fig5 log rrtrace's goldens read.
func TestEpisodesAgreeOnFig5Streams(t *testing.T) {
	type stream struct {
		name   string
		events []telemetry.Event
	}
	var streams []stream
	for _, drops := range []int{3, 6, 8} {
		streams = append(streams, stream{fmt.Sprintf("nine variants, %d drops", drops), fig5Stream(t, drops, 1)})
	}
	f, err := os.Open(filepath.Join("..", "telemetry", "testdata", "fig5_drops3.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ring := telemetry.NewRing(0)
	if _, err := telemetry.DecodeNDJSON(f, ring); err != nil {
		t.Fatal(err)
	}
	streams = append(streams, stream{"fig5_drops3.ndjson", ring.Events()})

	for _, s := range streams {
		spans, table, metrics, summary := telemetry.NewSpanSink(), flowstats.New(flowstats.Config{}), telemetry.NewMetricsSink(), telemetry.NewSummarySink()
		telemetry.Replay(s.events, spans, table, metrics, summary)
		var fromSpans int
		for _, sp := range spans.Spans() {
			if sp.Kind == telemetry.SpanRecovery {
				fromSpans++
			}
		}
		var fromSummary int
		ids := map[int32]bool{}
		for _, fl := range summary.Summary().Flows {
			fromSummary += len(fl.Episodes)
			ids[fl.Flow] = true
		}
		var fromTable, fromMetrics uint64
		for _, v := range table.Summary().Variants {
			fromTable += v.Episodes
		}
		for id := range ids {
			if h := metrics.R.LogHist(fmt.Sprintf("sender.%d.episode_s", id)); h != nil {
				fromMetrics += h.Count()
			}
		}
		if fromSpans == 0 || fromSummary != fromSpans || fromTable != uint64(fromSpans) || fromMetrics != uint64(fromSpans) {
			t.Errorf("%s: recovery spans %d, SummarySink %d, FlowTable %d, episode_s %d",
				s.name, fromSpans, fromSummary, fromTable, fromMetrics)
		}
	}
}
