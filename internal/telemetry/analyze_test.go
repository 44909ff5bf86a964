package telemetry

import (
	"strings"
	"testing"
)

// rec builds the Event DecodeNDJSON emits for a line carrying the
// named attributes.
func rec(t float64, comp Component, kind Kind, flow int32, attrs map[string]float64) Event {
	return srec(t, comp, kind, "", flow, 0, attrs)
}

// summarize, filter and timeline feed a literal stream through the sink
// each report is.
func summarize(events []Event) LogSummary {
	s := NewSummarySink()
	Replay(events, s)
	return s.Summary()
}

func filter(events []Event, opts FilterOpts) []Event {
	ring := NewRing(0)
	Replay(events, NewFilterSink(opts, ring))
	return ring.Events()
}

func timeline(events []Event, flow int32, width, height int) string {
	tl := NewTimelineSink(flow, width, height)
	Replay(events, tl)
	return tl.Render()
}

func TestSummarizeEpisode(t *testing.T) {
	records := []Event{
		rec(0.1, CompSender, KSend, 0, nil),
		rec(1.0, CompRR, KRecoveryEnter, 0, map[string]float64{"cwnd": 13, "ssthresh": 6.5}),
		rec(1.2, CompRR, KRetreatProbe, 0, map[string]float64{"actnum": 4}),
		rec(1.3, CompRR, KFurtherLoss, 0, map[string]float64{"actnum": 4, "ndup": 2}),
		rec(1.5, CompRR, KRecoveryExit, 0, map[string]float64{"cwnd": 5}),
		rec(2.0, CompSender, KFlowDone, 0, nil),
	}
	sum := summarize(records)
	if len(sum.Flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(sum.Flows))
	}
	f := sum.Flows[0]
	if !f.Done || f.DoneAt != 2.0 || f.Sends != 1 {
		t.Fatalf("flow summary wrong: %+v", f)
	}
	if len(f.Episodes) != 1 {
		t.Fatalf("episodes = %d, want 1", len(f.Episodes))
	}
	ep := f.Episodes[0]
	if ep.Start != 1.0 || ep.ProbeAt != 1.2 || ep.End != 1.5 {
		t.Fatalf("episode times wrong: %+v", ep)
	}
	if !almost(ep.RetreatDur(), 0.2) || !almost(ep.ProbeDur(), 0.3) {
		t.Fatalf("durations retreat=%v probe=%v", ep.RetreatDur(), ep.ProbeDur())
	}
	if ep.ExitCwnd != 5 || ep.FurtherLosses != 1 || ep.Timeout {
		t.Fatalf("episode detail wrong: %+v", ep)
	}
}

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestSummarizeTimeoutEndsEpisode(t *testing.T) {
	records := []Event{
		rec(1.0, CompRR, KRecoveryEnter, 0, nil),
		rec(2.0, CompSender, KTimeout, 0, nil),
	}
	sum := summarize(records)
	ep := sum.Flows[0].Episodes[0]
	if !ep.Timeout || ep.End != 2.0 {
		t.Fatalf("timeout episode wrong: %+v", ep)
	}
}

func TestSummarizeOpenEpisodeAtEOF(t *testing.T) {
	sum := summarize([]Event{rec(1.0, CompRR, KRecoveryEnter, 0, nil)})
	ep := sum.Flows[0].Episodes[0]
	if ep.End >= 0 || ep.Timeout {
		t.Fatalf("open episode wrong: %+v", ep)
	}
	if !strings.Contains(sum.Render(), "open") {
		t.Fatal("render does not mark open episode")
	}
}

// A republished log holds one run after another, each numbering its
// flows from 0 and restarting the clock: the runs must not merge into
// one row, and an episode the first run left open must not be closed by
// the second run's events. SpanSink splits the same stream at the same
// place.
func TestSummarizeKeepsSegmentsApart(t *testing.T) {
	records := []Event{
		rec(0.1, CompSender, KSend, 0, nil),
		rec(1.0, CompRR, KRecoveryEnter, 0, nil),
		rec(1.1, CompSender, KRetransmit, 0, nil),
		// second run, time regresses
		rec(0.1, CompSender, KSend, 0, nil),
		rec(0.2, CompSender, KSend, 0, nil),
		rec(0.9, CompRR, KRecoveryEnter, 0, nil),
		rec(1.4, CompRR, KRecoveryExit, 0, map[string]float64{"cwnd": 4}),
	}
	sum := summarize(records)
	if len(sum.Flows) != 2 {
		t.Fatalf("flow rows = %d, want one per segment", len(sum.Flows))
	}
	first, second := sum.Flows[0], sum.Flows[1]
	if first.Seg != 0 || first.Sends != 1 || first.Retransmits != 1 || second.Seg != 1 || second.Sends != 2 || second.Retransmits != 0 {
		t.Fatalf("rows merged or misplaced: %+v / %+v", first, second)
	}
	if len(first.Episodes) != 1 || first.Episodes[0].End >= 0 {
		t.Fatalf("segment 0's episode should stay open: %+v", first.Episodes)
	}
	if len(second.Episodes) != 1 || second.Episodes[0].Start != 0.9 || second.Episodes[0].End != 1.4 {
		t.Fatalf("segment 1's episode wrong: %+v", second.Episodes)
	}
	spans := NewSpanSink()
	Replay(records, spans)
	if last := spans.Spans()[len(spans.Spans())-1]; last.Seg != second.Seg {
		t.Fatalf("SpanSink ended in segment %d, Summarize in %d", last.Seg, second.Seg)
	}
}

func TestSummarizeQueueDrops(t *testing.T) {
	records := []Event{
		srec(1, CompQueue, KDrop, "fwd", 0, 0, map[string]float64{"forced": 1}),
		srec(2, CompQueue, KDrop, "fwd", 1, 0, nil),
		srec(3, CompQueue, KMark, "fwd", 0, 0, map[string]float64{"avg": 2.5}),
		srec(4, CompLoss, KDrop, "inject", 0, 0, nil),
	}
	sum := summarize(records)
	if len(sum.Queues) != 2 {
		t.Fatalf("queues = %d, want 2", len(sum.Queues))
	}
	// Sorted by comp then src: loss/inject before queue/fwd.
	if sum.Queues[0].Comp != "loss" || sum.Queues[0].Drops != 1 {
		t.Fatalf("loss row wrong: %+v", sum.Queues[0])
	}
	if q := sum.Queues[1]; q.Src != "fwd" || q.Drops != 3 || q.Forced != 1 {
		t.Fatalf("queue row wrong: %+v", q)
	}
}

func TestFilter(t *testing.T) {
	records := []Event{
		rec(1, CompSender, KSend, 0, nil),
		rec(2, CompSender, KSend, 1, nil),
		rec(3, CompRR, KRecoveryEnter, 0, nil),
		rec(4, CompQueue, KDrop, 0, nil),
	}
	if got := filter(records, FilterOpts{Flow: 0, FlowSet: true}); len(got) != 3 {
		t.Fatalf("flow filter: %d, want 3", len(got))
	}
	if got := filter(records, FilterOpts{Comp: "rr"}); len(got) != 1 || got[0].Kind != KRecoveryEnter {
		t.Fatalf("comp filter wrong: %+v", got)
	}
	if got := filter(records, FilterOpts{Kind: "send"}); len(got) != 2 {
		t.Fatalf("kind filter: %d, want 2", len(got))
	}
	if got := filter(records, FilterOpts{From: 2, To: 3}); len(got) != 2 {
		t.Fatalf("time filter: %d, want 2", len(got))
	}
	if got := filter(records, FilterOpts{}); len(got) != len(records) {
		t.Fatal("empty opts filtered records")
	}
}

func TestTimeline(t *testing.T) {
	records := []Event{
		rec(0, CompSender, KCwnd, 0, map[string]float64{"cwnd": 2}),
		rec(1, CompRR, KRecoveryEnter, 0, map[string]float64{"cwnd": 10}),
		rec(1.5, CompRR, KRetreatProbe, 0, map[string]float64{"actnum": 4}),
		rec(2, CompRR, KRecoveryExit, 0, map[string]float64{"cwnd": 5}),
	}
	out := timeline(records, 0, 40, 8)
	for _, want := range []string{"flow 0", "*", "+", "r", "p"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(timeline(records, 9, 40, 8), "no cwnd/actnum samples") {
		t.Fatal("empty flow not reported")
	}
}

// A multi-run log — four runs republished back to back, every one flow
// 0 from t=0 — draws one panel per run, labelled with its variant. Each
// strip ends a phase where SpanSink ends the episode: at a timeout
// (newreno), flow-done (tahoe, which never exits) or recovery-exit.
func TestTimelinePanelPerSegment(t *testing.T) {
	run := func(variant string, comp Component, recovery ...Event) []Event {
		evs := []Event{
			srec(0, CompSender, KFlowStart, variant, 0, 0, nil),
			rec(0, CompSender, KCwnd, 0, map[string]float64{"cwnd": 2}),
		}
		evs = append(evs, rec(1, comp, KRecoveryEnter, 0, map[string]float64{"cwnd": 10}))
		evs = append(evs, recovery...)
		return append(evs, rec(4, CompSender, KCwnd, 0, map[string]float64{"cwnd": 8}))
	}
	var log []Event
	log = append(log, run("tahoe", CompSender, rec(3, CompSender, KFlowDone, 0, nil))...)
	log = append(log, run("newreno", CompSender, rec(2, CompSender, KTimeout, 0, nil))...)
	log = append(log, run("sack", CompSender, rec(3, CompSender, KRecoveryExit, 0, map[string]float64{"cwnd": 5}))...)
	log = append(log, run("rr", CompRR,
		rec(2, CompRR, KRetreatProbe, 0, map[string]float64{"actnum": 4}),
		rec(3, CompRR, KRecoveryExit, 0, map[string]float64{"cwnd": 5}))...)

	// 41 columns over 0..4 s: column x is t = x/10 s.
	out := timeline(log, 0, 41, 6)
	var headers, strips []string
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "seg ") {
			headers = append(headers, l)
		}
		if strings.HasPrefix(l, "phase:") {
			strips = append(strips, lines[i-1])
		}
	}
	dots, r, p := strings.Repeat(".", 10), strings.Repeat("r", 10), strings.Repeat("p", 10)
	want := []struct{ header, strip string }{
		{"seg 0 flow 0 (tahoe) ", dots + r + r + dots + "."},
		{"seg 1 flow 0 (newreno) ", dots + r + dots + dots + "."},
		{"seg 2 flow 0 (sack) ", dots + r + r + dots + "."},
		{"seg 3 flow 0 (rr) ", dots + r + p + dots + "."},
	}
	if len(headers) != len(want) || len(strips) != len(want) {
		t.Fatalf("%d panels, %d strips, want %d:\n%s", len(headers), len(strips), len(want), out)
	}
	for i, w := range want {
		if !strings.HasPrefix(headers[i], w.header) {
			t.Errorf("panel %d header %q, want prefix %q", i, headers[i], w.header)
		}
		if strips[i] != w.strip {
			t.Errorf("panel %d strip\n got %s\nwant %s", i, strips[i], w.strip)
		}
	}
}

// The summary learns the flow lifecycle kinds: flow-start carries the
// variant name, flow-done counts completions, and both surface as the
// "flows:" line of the rendering — the only per-flow signal present in
// aggregate-scale logs.
func TestSummarizeFlowLifecycle(t *testing.T) {
	records := []Event{
		srec(0, CompSender, KFlowStart, "rr", 0, 0, map[string]float64{"bytes": 4000}),
		srec(0, CompSender, KFlowStart, "reno", 1, 0, map[string]float64{"bytes": 4000}),
		srec(1.5, CompSender, KFlowStats, "rr", 0, 0, map[string]float64{"rtx": 2, "timeouts": 0}),
	}
	sum := summarize(records)
	if sum.FlowsStarted != 2 || sum.FlowsCompleted != 1 {
		t.Fatalf("lifecycle counts: started=%d completed=%d", sum.FlowsStarted, sum.FlowsCompleted)
	}
	if len(sum.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(sum.Flows))
	}
	if f := sum.Flows[0]; f.Variant != "rr" || !f.Done || f.DoneAt != 1.5 {
		t.Fatalf("flow 0 summary wrong: %+v", f)
	}
	if f := sum.Flows[1]; f.Variant != "reno" || f.Done {
		t.Fatalf("flow 1 summary wrong: %+v", f)
	}
	if out := sum.Render(); !strings.Contains(out, "flows: 2 started, 1 completed") {
		t.Fatalf("render missing flows line:\n%s", out)
	}
}
