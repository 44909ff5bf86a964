package flowstats

import (
	"math"
	"testing"
	"time"

	"rrtcp/internal/telemetry"
)

// A recovery episode that does not end in recovery-exit — cut short by a
// timeout, by the next recovery-enter (Tahoe emits no exit) or by the
// end of the flow — is one episode with the same bounds for every
// consumer of the stream: SpanSink's recovery spans, SummarySink's
// episodes, FlowTable's count and MetricsSink's episode_s distribution.
func TestEpisodesAgreeAcrossConsumers(t *testing.T) {
	const K = telemetry.KRecoveryEnter
	type bounds struct{ begin, end float64 } // seconds
	// e is a sender event of flow 0 at ms milliseconds; rr the same from
	// the RR state machine, whose recovery-enter opens a retreat span.
	e := func(ms int, kind telemetry.Kind, a, b float64) telemetry.Event {
		return telemetry.Event{At: time.Duration(ms) * time.Millisecond, Comp: telemetry.CompSender, Kind: kind, Flow: 0, A: a, B: b}
	}
	rr := func(ms int, kind telemetry.Kind, a, b float64) telemetry.Event {
		ev := e(ms, kind, a, b)
		ev.Comp = telemetry.CompRR
		return ev
	}
	cases := []struct {
		name   string
		events []telemetry.Event
		want   []bounds
	}{
		{
			name: "clean exit",
			events: []telemetry.Event{
				e(100, K, 8, 4),
				e(300, telemetry.KRecoveryExit, 4, 0),
			},
			want: []bounds{{0.1, 0.3}},
		},
		{
			name: "timeout cuts recovery short",
			events: []telemetry.Event{
				e(100, K, 8, 4),
				e(300, telemetry.KTimeout, 0, 0),
			},
			want: []bounds{{0.1, 0.3}},
		},
		{
			name: "timeout in RR's probe sub-phase",
			events: []telemetry.Event{
				rr(100, K, 8, 4),
				rr(200, telemetry.KRetreatProbe, 4, 0),
				e(300, telemetry.KTimeout, 0, 0),
				// What a strategy does after the timeout belongs to no episode.
				rr(400, telemetry.KFurtherLoss, 4, 0),
				e(500, telemetry.KRecoveryExit, 4, 0),
			},
			want: []bounds{{0.1, 0.3}},
		},
		{
			name: "enter without exit, then enter again",
			events: []telemetry.Event{
				e(900, K, 8, 4),
				e(950, K, 4, 2),
				e(1200, telemetry.KRecoveryExit, 2, 0),
			},
			want: []bounds{{0.9, 0.95}, {0.95, 1.2}},
		},
		{
			name: "flow ends inside recovery",
			events: []telemetry.Event{
				e(100, K, 8, 4),
			},
			want: []bounds{{0.1, 2}},
		},
		{
			name: "timeout, a second episode, then a third cut by the end of the flow",
			events: []telemetry.Event{
				e(100, K, 8, 4),
				e(300, telemetry.KTimeout, 0, 0),
				e(600, K, 4, 2),
				e(700, telemetry.KRecoveryExit, 2, 0),
				e(1500, K, 4, 2),
			},
			want: []bounds{{0.1, 0.3}, {0.6, 0.7}, {1.5, 2}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Every stream is one flow's life: started at 0, a first
			// segment sent, done at 2 s.
			stream := []telemetry.Event{start(0, 0, "tahoe", 1e6), e(0, telemetry.KSend, 0, 0)}
			stream = append(stream, c.events...)
			stream = append(stream, e(2000, telemetry.KFlowDone, 0, 0), done(2, 0, "tahoe", 1e6, 0, 0))

			spans, table, metrics, summary := telemetry.NewSpanSink(), New(Config{}), telemetry.NewMetricsSink(), telemetry.NewSummarySink()
			telemetry.Replay(stream, spans, table, metrics, summary)
			table.Finalize()
			sum := summary.Summary()

			var fromSpans []bounds
			var spanSecs float64
			for _, sp := range spans.Spans() {
				if sp.Open {
					t.Errorf("%v span %v..%v left open past flow-done", sp.Kind, sp.Begin, sp.End)
				}
				if sp.Kind == telemetry.SpanRecovery {
					fromSpans = append(fromSpans, bounds{sp.Begin.Seconds(), sp.End.Seconds()})
					spanSecs += sp.Duration().Seconds()
				}
			}
			if h := metrics.R.LogHist("sender.0.episode_s"); h == nil || h.Count() != uint64(len(fromSpans)) || math.Abs(h.Sum()-spanSecs) > 1e-9 {
				var n uint64
				var s float64
				if h != nil {
					n, s = h.Count(), h.Sum()
				}
				t.Errorf("MetricsSink: episode_s n=%d sum=%gs, recovery spans n=%d sum=%gs", n, s, len(fromSpans), spanSecs)
			}
			var fromSummary []bounds
			for _, ep := range sum.Flows[0].Episodes {
				fromSummary = append(fromSummary, bounds{ep.Start, ep.End})
			}
			if got := table.Summary().Variants[0].Episodes; got != uint64(len(c.want)) {
				t.Errorf("FlowTable counts %d episodes, want %d", got, len(c.want))
			}
			for who, got := range map[string][]bounds{"SpanSink": fromSpans, "SummarySink": fromSummary} {
				if len(got) != len(c.want) {
					t.Errorf("%s: episodes %v, want %v", who, got, c.want)
					continue
				}
				for i := range got {
					if got[i] != c.want[i] {
						t.Errorf("%s: episode %d is %v, want %v", who, i, got[i], c.want[i])
					}
				}
			}
		})
	}
}
