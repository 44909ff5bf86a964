package experiments

import (
	"bytes"
	"testing"

	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// figure5Spans runs one figure-5 variant with telemetry captured and
// returns the assembled spans (and the raw events for further checks).
func figure5Spans(t *testing.T, drops int, kind workload.Kind) ([]*telemetry.Span, []telemetry.Event) {
	t.Helper()
	ring := telemetry.NewRing(0)
	cfg := Figure5Config{
		Drops:     drops,
		Variants:  []workload.Kind{kind},
		Telemetry: telemetry.NewBus(ring),
	}
	if _, err := Run(NewFigure5Experiment(cfg), RunOptions{}); err != nil {
		t.Fatalf("figure5 (%v, drops=%d): %v", kind, drops, err)
	}
	sink := telemetry.NewSpanSink()
	for _, ev := range ring.Events() {
		sink.Emit(ev)
	}
	return sink.Spans(), ring.Events()
}

func spansOfKind(spans []*telemetry.Span, kind telemetry.SpanKind) []*telemetry.Span {
	var out []*telemetry.Span
	for _, sp := range spans {
		if sp.Kind == kind {
			out = append(out, sp)
		}
	}
	return out
}

// A clean burst (two drops in one window) is one recovery episode. For
// RR that episode must decompose into exactly one retreat and one probe
// child with no further-loss detections — the paper's Figure 2 shape.
func TestFigure5RREpisodeShape(t *testing.T) {
	spans, _ := figure5Spans(t, 2, workload.RR)

	conns := spansOfKind(spans, telemetry.SpanConn)
	if len(conns) != 1 {
		t.Fatalf("%d conn spans, want 1: %+v", len(conns), conns)
	}
	conn := conns[0]
	if conn.Open {
		t.Fatal("conn span never closed")
	}

	recs := spansOfKind(spans, telemetry.SpanRecovery)
	if len(recs) != 1 {
		t.Fatalf("%d recovery episodes, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Open {
		t.Fatal("recovery episode never closed")
	}
	if rec.Parent != conn.ID {
		t.Fatalf("recovery parent = %d, want conn %d", rec.Parent, conn.ID)
	}
	if rec.Begin < conn.Begin || rec.End > conn.End {
		t.Fatalf("episode [%v,%v] outside conn [%v,%v]", rec.Begin, rec.End, conn.Begin, conn.End)
	}
	if rec.Attrs["further_losses"] != 0 {
		t.Fatalf("clean burst reported %v further losses", rec.Attrs["further_losses"])
	}
	if rec.Attrs["enter_cwnd"] <= rec.Attrs["exit_cwnd"] {
		t.Fatalf("recovery did not shrink the window: enter=%v exit=%v",
			rec.Attrs["enter_cwnd"], rec.Attrs["exit_cwnd"])
	}

	retreats := spansOfKind(spans, telemetry.SpanRetreat)
	probes := spansOfKind(spans, telemetry.SpanProbe)
	if len(retreats) != 1 || len(probes) != 1 {
		t.Fatalf("%d retreat / %d probe sub-phases, want 1/1", len(retreats), len(probes))
	}
	retreat, probe := retreats[0], probes[0]
	if retreat.Parent != rec.ID || probe.Parent != rec.ID {
		t.Fatal("sub-phases not parented to the episode")
	}
	// Retreat and probe tile the episode: retreat from enter to the
	// transition, probe from the transition to exit.
	if retreat.Begin != rec.Begin || retreat.End != probe.Begin || probe.End != rec.End {
		t.Fatalf("sub-phases do not tile the episode: retreat [%v,%v], probe [%v,%v], episode [%v,%v]",
			retreat.Begin, retreat.End, probe.Begin, probe.End, rec.Begin, rec.End)
	}
	if retreat.Duration() <= 0 || probe.Duration() <= 0 {
		t.Fatal("degenerate sub-phase duration")
	}
}

// Baseline variants enter and exit recovery through the generic sender
// path: the episode must assemble flat, with no RR sub-phases.
func TestFigure5BaselineEpisodeFlat(t *testing.T) {
	spans, _ := figure5Spans(t, 2, workload.Reno)
	if n := len(spansOfKind(spans, telemetry.SpanRecovery)); n != 1 {
		t.Fatalf("%d recovery episodes, want 1", n)
	}
	if n := len(spansOfKind(spans, telemetry.SpanRetreat)); n != 0 {
		t.Fatalf("reno episode has %d retreat sub-phases", n)
	}
	if n := len(spansOfKind(spans, telemetry.SpanProbe)); n != 0 {
		t.Fatalf("reno episode has %d probe sub-phases", n)
	}
}

// A six-drop burst forces RR to detect further losses inside the
// episode: the recovery span carries the further-loss count, the
// instants land inside the probe sub-phase, and actnum steps down at
// the detection (the algorithm deflates its estimate of packets
// actually in the network when another hole appears).
func TestFigure5RRFurtherLossShape(t *testing.T) {
	spans, _ := figure5Spans(t, 6, workload.RR)
	recs := spansOfKind(spans, telemetry.SpanRecovery)
	if len(recs) != 1 {
		t.Fatalf("%d recovery episodes, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Attrs["further_losses"] < 1 {
		t.Fatalf("six-drop burst detected %v further losses, want >= 1", rec.Attrs["further_losses"])
	}
	probes := spansOfKind(spans, telemetry.SpanProbe)
	if len(probes) != 1 {
		t.Fatalf("%d probe sub-phases, want 1", len(probes))
	}
	probe := probes[0]

	// Walk the probe's instants: every further-loss must be followed by
	// an actnum sample below the last one seen before it.
	lastActnum := probe.Attrs["actnum"]
	furtherLosses := 0
	checked := 0
	for i, evt := range probe.Events {
		if evt.At < probe.Begin || evt.At > probe.End {
			t.Fatalf("instant %s@%v outside probe [%v,%v]", evt.Name, evt.At, probe.Begin, probe.End)
		}
		switch evt.Name {
		case "further-loss":
			furtherLosses++
			for _, next := range probe.Events[i+1:] {
				if next.Name == "actnum" {
					if next.A >= lastActnum {
						t.Fatalf("actnum %v did not decrease after further loss (was %v)", next.A, lastActnum)
					}
					checked++
					break
				}
			}
		case "actnum":
			lastActnum = evt.A
		}
	}
	if furtherLosses == 0 {
		t.Fatal("no further-loss instants on the probe span")
	}
	if checked == 0 {
		t.Fatal("no actnum sample followed a further-loss detection")
	}
}

// The gauge series sampled during a figure-5 run must cover the sender
// gauges and the bottleneck queue, and every sample must fall inside
// the run.
func TestFigure5SampledSeries(t *testing.T) {
	_, events := figure5Spans(t, 2, workload.RR)
	sink := telemetry.NewSeriesSink()
	for _, ev := range events {
		sink.Emit(ev)
	}
	series := sink.Series()
	bySrc := map[string]*telemetry.Series{}
	for _, sr := range series {
		bySrc[sr.Src] = sr
	}
	for _, want := range []string{"cwnd", "ssthresh", "srtt", "rto", "flight", "actnum", "fwd.qlen"} {
		sr := bySrc[want]
		if sr == nil {
			t.Fatalf("no sampled series %q (have %v)", want, keys(bySrc))
		}
		if len(sr.T) == 0 {
			t.Fatalf("series %q is empty", want)
		}
	}
	// The cwnd series must show the episode: growth out of slow start,
	// then the recovery collapse — a halving-or-worse between adjacent
	// samples when the burst hits.
	cwnd := bySrc["cwnd"]
	grew, collapsed := false, false
	for i := 1; i < len(cwnd.V); i++ {
		if cwnd.V[i] > cwnd.V[0] {
			grew = true
		}
		if grew && cwnd.V[i] <= cwnd.V[i-1]/2 {
			collapsed = true
			break
		}
	}
	if !grew || !collapsed {
		t.Fatalf("cwnd series shows no recovery collapse (grew=%v collapsed=%v): %v",
			grew, collapsed, cwnd.V)
	}
}

func keys(m map[string]*telemetry.Series) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// The full export path on a real multi-variant run: the Chrome trace
// must pass structural validation and contain one track per
// (segment, flow) plus counter lanes.
func TestFigure5ChromeTraceExport(t *testing.T) {
	ring := telemetry.NewRing(0)
	cfg := Figure5Config{
		Drops:     2,
		Variants:  []workload.Kind{workload.NewReno, workload.RR},
		Telemetry: telemetry.NewBus(ring),
	}
	if _, err := Run(NewFigure5Experiment(cfg), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	spanSink := telemetry.NewSpanSink()
	seriesSink := telemetry.NewSeriesSink()
	for _, ev := range ring.Events() {
		spanSink.Emit(ev)
		seriesSink.Emit(ev)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, spanSink.Spans(), seriesSink.Series()); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("fig5 trace fails structural validation: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`"seg0 flow0"`, `"seg1 flow0"`, // one span track per variant segment
		`"probe"`,                // RR's sub-phase survives export
		`"seg1 flow0 cwnd"`,      // sender gauge counter lane
		`"seg0 fwd.qlen"`,        // queue gauge counter lane
		`"displayTimeUnit":"ms"`, // trace header
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("trace missing %s:\n%.400s", want, out)
		}
	}
}
