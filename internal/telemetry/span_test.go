package telemetry

import (
	"maps"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"rrtcp/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(n) * time.Millisecond }

// rrEpisode publishes a canonical single-loss RR episode for flow 0:
// send → recovery-enter (retreat) → retreat-probe → actnum ticks →
// recovery-exit → done.
func rrEpisode(sink Sink) {
	emit := func(ev Event) { sink.Emit(ev) }
	emit(Event{At: ms(0), Comp: CompSender, Kind: KSend, Flow: 0, Seq: 1000})
	emit(Event{At: ms(100), Comp: CompRR, Kind: KRecoveryEnter, Flow: 0, A: 16, B: 8})
	emit(Event{At: ms(150), Comp: CompRR, Kind: KRetreatProbe, Flow: 0, A: 8})
	emit(Event{At: ms(200), Comp: CompRR, Kind: KActnum, Flow: 0, A: 8, B: 0})
	emit(Event{At: ms(250), Comp: CompRR, Kind: KActnum, Flow: 0, A: 9, B: 0})
	emit(Event{At: ms(300), Comp: CompRR, Kind: KRecoveryExit, Flow: 0, A: 9})
	emit(Event{At: ms(500), Comp: CompSender, Kind: KFlowDone, Flow: 0})
}

func spansOf(all []*Span, kind SpanKind) []*Span {
	var out []*Span
	for _, sp := range all {
		if sp.Kind == kind {
			out = append(out, sp)
		}
	}
	return out
}

func TestSpanSinkAssemblesRREpisode(t *testing.T) {
	sink := NewSpanSink()
	rrEpisode(sink)
	spans := sink.Spans()

	conns := spansOf(spans, SpanConn)
	if len(conns) != 1 {
		t.Fatalf("conn spans = %d, want 1", len(conns))
	}
	conn := conns[0]
	if conn.Begin != ms(0) || conn.End != ms(500) || conn.Open {
		t.Fatalf("conn span = %+v", conn)
	}

	recs := spansOf(spans, SpanRecovery)
	if len(recs) != 1 {
		t.Fatalf("recovery spans = %d, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Parent != conn.ID {
		t.Fatalf("recovery parent = %d, want conn %d", rec.Parent, conn.ID)
	}
	if rec.Begin != ms(100) || rec.End != ms(300) || rec.Open {
		t.Fatalf("recovery span = %+v", rec)
	}
	if rec.Attrs["enter_cwnd"] != 16 || rec.Attrs["ssthresh"] != 8 || rec.Attrs["exit_cwnd"] != 9 {
		t.Fatalf("recovery attrs = %v", rec.Attrs)
	}

	retreats := spansOf(spans, SpanRetreat)
	probes := spansOf(spans, SpanProbe)
	if len(retreats) != 1 || len(probes) != 1 {
		t.Fatalf("retreat/probe = %d/%d, want 1/1", len(retreats), len(probes))
	}
	if retreats[0].Parent != rec.ID || probes[0].Parent != rec.ID {
		t.Fatal("sub-phases not parented to the recovery span")
	}
	if retreats[0].Begin != ms(100) || retreats[0].End != ms(150) {
		t.Fatalf("retreat = %v..%v", retreats[0].Begin, retreats[0].End)
	}
	if probes[0].Begin != ms(150) || probes[0].End != ms(300) {
		t.Fatalf("probe = %v..%v", probes[0].Begin, probes[0].End)
	}
	if probes[0].Attrs["actnum"] != 8 {
		t.Fatalf("probe attrs = %v", probes[0].Attrs)
	}
	// The actnum instants land inside the probe sub-phase, where they
	// happened.
	if len(probes[0].Events) != 2 || probes[0].Events[0].Name != "actnum" {
		t.Fatalf("probe events = %+v", probes[0].Events)
	}
}

func TestSpanSinkBaselineEpisodeHasNoSubPhases(t *testing.T) {
	sink := NewSpanSink()
	sink.Emit(Event{At: ms(0), Comp: CompSender, Kind: KSend, Flow: 0})
	sink.Emit(Event{At: ms(100), Comp: CompSender, Kind: KRecoveryEnter, Flow: 0, A: 16, B: 8})
	sink.Emit(Event{At: ms(200), Comp: CompSender, Kind: KRecoveryExit, Flow: 0, A: 8})
	spans := sink.Spans()
	if n := len(spansOf(spans, SpanRecovery)); n != 1 {
		t.Fatalf("recovery spans = %d, want 1", n)
	}
	if n := len(spansOf(spans, SpanRetreat)) + len(spansOf(spans, SpanProbe)); n != 0 {
		t.Fatalf("baseline episode grew %d sub-phase spans, want 0", n)
	}
}

func TestSpanSinkFurtherLoss(t *testing.T) {
	sink := NewSpanSink()
	sink.Emit(Event{At: ms(100), Comp: CompRR, Kind: KRecoveryEnter, Flow: 0, A: 16, B: 8})
	sink.Emit(Event{At: ms(150), Comp: CompRR, Kind: KRetreatProbe, Flow: 0, A: 8})
	sink.Emit(Event{At: ms(180), Comp: CompRR, Kind: KFurtherLoss, Flow: 0, A: 7, B: 2})
	sink.Emit(Event{At: ms(220), Comp: CompRR, Kind: KFurtherLoss, Flow: 0, A: 5, B: 1})
	sink.Emit(Event{At: ms(400), Comp: CompRR, Kind: KRecoveryExit, Flow: 0, A: 5})
	rec := spansOf(sink.Spans(), SpanRecovery)[0]
	if rec.Attrs["further_losses"] != 2 {
		t.Fatalf("further_losses = %v, want 2", rec.Attrs["further_losses"])
	}
	probe := spansOf(sink.Spans(), SpanProbe)[0]
	if len(probe.Events) != 2 || probe.Events[1].Name != "further-loss" || probe.Events[1].A != 5 {
		t.Fatalf("events = %+v", probe.Events)
	}
}

func TestSpanSinkQueueBusyPeriod(t *testing.T) {
	sink := NewSpanSink()
	sink.Emit(Event{At: ms(10), Comp: CompQueue, Kind: KEnqueue, Src: "fwd", Flow: NoFlow, A: 1})
	sink.Emit(Event{At: ms(20), Comp: CompQueue, Kind: KEnqueue, Src: "fwd", Flow: NoFlow, A: 2})
	sink.Emit(Event{At: ms(30), Comp: CompLink, Kind: KLinkTx, Src: "fwd", Flow: NoFlow, A: 1000, B: 1})
	sink.Emit(Event{At: ms(40), Comp: CompLink, Kind: KLinkTx, Src: "fwd", Flow: NoFlow, A: 1000, B: 0})
	sink.Emit(Event{At: ms(60), Comp: CompQueue, Kind: KEnqueue, Src: "fwd", Flow: NoFlow, A: 1})
	spans := spansOf(sink.Spans(), SpanQueueBusy)
	if len(spans) != 2 {
		t.Fatalf("busy periods = %d, want 2", len(spans))
	}
	if spans[0].Begin != ms(10) || spans[0].End != ms(40) || spans[0].Open {
		t.Fatalf("first busy period = %+v", spans[0])
	}
	if spans[1].Begin != ms(60) || !spans[1].Open {
		t.Fatalf("second busy period = %+v", spans[1])
	}
}

// Spans are records inside the sink's chunked stores: opening and
// closing one — a queue busy period, a connection, an RR episode with its
// retreat and probe, their attributes and instants — allocates nothing
// until a chunk fills, and a span opened first stays addressable while
// thousands more are appended behind it.
func TestSpanSinkOpenCloseDoesNotAllocate(t *testing.T) {
	sink := NewSpanSink()
	at := sim.Time(0)
	cycle := func() {
		at += time.Millisecond
		sink.Emit(Event{At: at, Comp: CompSender, Kind: KSend, Flow: 1, Seq: 1000})
		sink.Emit(Event{At: at, Comp: CompQueue, Kind: KEnqueue, Src: "fwd", Flow: NoFlow, A: 1})
		sink.Emit(Event{At: at, Comp: CompLink, Kind: KLinkTx, Src: "fwd", Flow: NoFlow, A: 1000, B: 0})
		sink.Emit(Event{At: at, Comp: CompSender, Kind: KFlowDone, Flow: 1})
	}
	episode := func() {
		at += time.Millisecond
		sink.Emit(Event{At: at, Comp: CompRR, Kind: KRecoveryEnter, Flow: 2, A: 16, B: 8})
		sink.Emit(Event{At: at, Comp: CompRR, Kind: KActnum, Flow: 2, A: 7})
		sink.Emit(Event{At: at, Comp: CompRR, Kind: KRetreatProbe, Flow: 2, A: 8})
		sink.Emit(Event{At: at, Comp: CompRR, Kind: KFurtherLoss, Flow: 2, A: 7, B: 2})
		sink.Emit(Event{At: at, Comp: CompRR, Kind: KRecoveryExit, Flow: 2, A: 8})
	}
	// One span outlives the whole run, to check its address stays good.
	sink.Emit(Event{At: 0, Comp: CompSender, Kind: KSend, Flow: 0})
	for sink.spans.Len() < 8128+2 { // past the ramp, into a fresh 4096-chunk
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("span open/close allocates %.2f times per cycle in steady state, want 0", avg)
	}
	for sink.instants.Len() < 8128+2 {
		episode()
	}
	if avg := testing.AllocsPerRun(1000, episode); avg != 0 {
		t.Fatalf("an RR episode allocates %.2f times in steady state, want 0", avg)
	}
	sink.Emit(Event{At: at + time.Millisecond, Comp: CompSender, Kind: KFlowDone, Flow: 0})
	sink.Emit(Event{At: at + time.Millisecond, Comp: CompSender, Kind: KFlowDone, Flow: 2})
	spans := sink.Spans()
	if len(spans) != sink.spans.Len() {
		t.Fatalf("Spans() returned %d of %d", len(spans), sink.spans.Len())
	}
	for i, sp := range spans {
		if sp.ID != i {
			t.Fatalf("spans[%d].ID = %d: open order lost", i, sp.ID)
		}
		if sp.Open {
			t.Fatalf("span %d (%v) left open", i, sp.Kind)
		}
	}
	if first := spans[0]; first.Flow != 0 || first.Begin != 0 || first.End != at+time.Millisecond {
		t.Fatalf("long-lived span closed through a stale address: %+v", first)
	}
	last := spans[len(spans)-1] // the last episode's probe
	if last.Kind != SpanProbe || last.Attrs["actnum"] != 8 || len(last.Events) != 1 || last.Events[0].Name != "further-loss" {
		t.Fatalf("last probe = %+v", last)
	}
	if rec := spans[last.Parent]; rec.Attrs["further_losses"] != 1 || rec.Attrs["exit_cwnd"] != 8 {
		t.Fatalf("last episode = %+v", rec)
	}
}

// A queue busy period, most of a run's spans, costs one record.
func TestSpanRecordIs40Bytes(t *testing.T) {
	if n := unsafe.Sizeof(spanRec{}); n > 40 {
		t.Fatalf("spanRec is %d bytes, want at most 40", n)
	}
}

// Spans builds its views from the records: a span's ID is its position,
// Attrs is nil exactly where no attribute was set (renderAttrs and the
// Chrome args rely on it), and each span's Events are its own.
func TestSpanViewsIDsAttrsAndEvents(t *testing.T) {
	sink := NewSpanSink()
	Replay([]Event{
		{At: ms(0), Comp: CompSender, Kind: KSend, Flow: 0},
		{At: ms(10), Comp: CompQueue, Kind: KEnqueue, Src: "fwd", Flow: NoFlow, A: 1},
		{At: ms(100), Comp: CompRR, Kind: KRecoveryEnter, Flow: 0, A: 16, B: 8},
		{At: ms(120), Comp: CompRR, Kind: KActnum, Flow: 0, A: 4},
		{At: ms(150), Comp: CompRR, Kind: KRetreatProbe, Flow: 0, A: 8},
		{At: ms(180), Comp: CompRR, Kind: KFurtherLoss, Flow: 0, A: 7, B: 2},
		{At: ms(200), Comp: CompLink, Kind: KLinkTx, Src: "fwd", Flow: NoFlow, A: 1000, B: 0},
		{At: ms(300), Comp: CompSender, Kind: KTimeout, Flow: 0},
		{At: ms(500), Comp: CompSender, Kind: KFlowDone, Flow: 0},
	}, sink)
	spans := sink.Spans()
	want := []struct {
		kind   SpanKind
		src    string
		attrs  map[string]float64
		events int
	}{
		{SpanConn, "", nil, 0},
		{SpanQueueBusy, "fwd", nil, 0},
		{SpanRecovery, "", map[string]float64{"enter_cwnd": 16, "ssthresh": 8, "further_losses": 1, "timeout": 1}, 0},
		{SpanRetreat, "", nil, 1},
		{SpanProbe, "", map[string]float64{"actnum": 8}, 1},
	}
	if len(spans) != len(want) {
		t.Fatalf("%d spans, want %d:\n%s", len(spans), len(want), RenderSpans(spans))
	}
	for i, sp := range spans {
		w := want[i]
		if sp.ID != i || sp.Kind != w.kind || sp.Src != w.src || len(sp.Events) != w.events {
			t.Fatalf("spans[%d] = %+v, want ID %d %v src %q with %d events", i, sp, i, w.kind, w.src, w.events)
		}
		if (sp.Attrs == nil) != (w.attrs == nil) || !maps.Equal(sp.Attrs, w.attrs) {
			t.Fatalf("spans[%d] (%v) Attrs = %#v, want %#v", i, sp.Kind, sp.Attrs, w.attrs)
		}
	}
	retreat, probe := spans[3], spans[4]
	if e := retreat.Events[0]; e.At != ms(120) || e.Name != "actnum" || e.A != 4 {
		t.Fatalf("retreat instant = %+v", e)
	}
	_ = append(retreat.Events, SpanEvent{Name: "x"})
	if e := probe.Events[0]; e.At != ms(180) || e.Name != "further-loss" || e.A != 7 || e.B != 2 {
		t.Fatalf("probe instant = %+v after an append to the retreat's", e)
	}
}

func TestSpanSinkSegmentsOnTimeRegression(t *testing.T) {
	sink := NewSpanSink()
	rrEpisode(sink)
	rrEpisode(sink) // republished second run: time restarts at 0
	spans := sink.Spans()
	recs := spansOf(spans, SpanRecovery)
	if len(recs) != 2 {
		t.Fatalf("recovery spans = %d, want 2", len(recs))
	}
	if recs[0].Seg != 0 || recs[1].Seg != 1 {
		t.Fatalf("segments = %d/%d, want 0/1", recs[0].Seg, recs[1].Seg)
	}
	if recs[1].Open {
		t.Fatal("second segment's episode should be closed")
	}
}

// A log from outside the program may carry any flow id. One near
// MaxInt32 must cost what a small one does, in SpanSink and so in
// SummarySink, and a segment roll must forget its open episode as it does
// a small id's.
func TestSpanSinkLargeFlowIDStaysSmall(t *testing.T) {
	const id = math.MaxInt32
	events := []Event{
		{At: ms(0), Comp: CompSender, Kind: KSend, Flow: id},
		{At: ms(100), Comp: CompSender, Kind: KRecoveryEnter, Flow: id},
		{At: ms(300), Comp: CompSender, Kind: KRecoveryExit, Flow: id, A: 9},
		{At: ms(400), Comp: CompSender, Kind: KRecoveryEnter, Flow: id},
		// The next run: the clock restarts, the open episode is abandoned.
		{At: ms(50), Comp: CompSender, Kind: KRecoveryExit, Flow: id},
		{At: ms(500), Comp: CompSender, Kind: KFlowDone, Flow: id},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sum := summarize(events)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("SummarySink allocated %d bytes for one flow", grew)
	}
	if len(sum.Flows) != 2 {
		t.Fatalf("flow rows = %+v, want one per segment", sum.Flows)
	}
	eps := sum.Flows[0].Episodes
	if len(eps) != 2 || eps[0].End != 0.3 || eps[0].ExitCwnd != 9 || eps[1].End != -1 {
		t.Fatalf("segment 0 episodes = %+v, want one closed at 0.3 s and one left open", eps)
	}
	if eps := sum.Flows[1].Episodes; len(eps) != 0 {
		t.Fatalf("segment 1 episodes = %+v, want none", eps)
	}
}

// SummarySink and TimelineSink read the span records in place: a log of
// many queue busy periods and one episode must not cost them a 104-byte
// view and a pointer per busy period on top of the 40-byte record.
func TestSummarizeAndTimelineBuildNoSpanViews(t *testing.T) {
	const busy = 20000
	events := make([]Event, 0, 2*busy+4)
	events = append(events,
		Event{At: ms(0), Comp: CompSender, Kind: KSend, Flow: 0},
		Event{At: ms(0), Comp: CompSender, Kind: KCwnd, Flow: 0, A: 10},
		Event{At: ms(1), Comp: CompRR, Kind: KRecoveryEnter, Flow: 0, A: 10, B: 5})
	for i := 0; i < busy; i++ {
		events = append(events,
			Event{At: ms(2 + i), Comp: CompQueue, Kind: KEnqueue, Flow: NoFlow, Src: "rev", A: 1},
			Event{At: ms(2 + i), Comp: CompLink, Kind: KLinkTx, Flow: NoFlow, Src: "rev", A: 40, B: 0})
	}
	events = append(events, Event{At: ms(busy + 3), Comp: CompRR, Kind: KRecoveryExit, Flow: 0, A: 5})
	for name, read := range map[string]func(){
		"SummarySink":  func() { summarize(events) },
		"TimelineSink": func() { timeline(events, 0, 40, 8) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / busy; per > 64 {
			t.Errorf("%s allocated %d bytes per queue busy period, want the record's 40 and little more", name, per)
		}
	}
}

func TestSpanSinkIgnoresSweepProgress(t *testing.T) {
	sink := NewSpanSink()
	sink.Emit(Event{At: ms(100), Comp: CompSender, Kind: KSend, Flow: 0})
	// Progress events carry At=0; they must not roll the segment.
	sink.Emit(Event{At: 0, Comp: CompSweep, Kind: KSweepJob, Flow: NoFlow})
	sink.Emit(Event{At: ms(200), Comp: CompSender, Kind: KFlowDone, Flow: 0})
	spans := sink.Spans()
	if len(spans) != 1 || spans[0].Seg != 0 || spans[0].Open {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestSpanSinkNilSafe(t *testing.T) {
	var sink *SpanSink
	sink.Emit(Event{At: ms(1), Comp: CompSender, Kind: KSend})
	if sink.Spans() != nil {
		t.Fatal("nil sink returned spans")
	}
}

func TestRenderSpansShape(t *testing.T) {
	sink := NewSpanSink()
	rrEpisode(sink)
	out := RenderSpans(sink.Spans())
	for _, want := range []string{"segment 0", "conn flow=0", "recovery flow=0", "retreat", "probe", "enter_cwnd=16", "@0.200000 actnum"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAssembleSpansFromRecords(t *testing.T) {
	ring := NewRing(0)
	sinks := NewBus(ring)
	rrEpisode(busAdapter{sinks})
	var sb strings.Builder
	nd := NewNDJSONSink(&sb)
	for _, ev := range ring.Events() {
		nd.Emit(ev)
	}
	nd.Flush()
	sink := NewSpanSink()
	Replay(mustDecode(t, strings.NewReader(sb.String())), sink)
	spans := sink.Spans()
	if len(spansOf(spans, SpanRecovery)) != 1 || len(spansOf(spans, SpanProbe)) != 1 {
		t.Fatalf("offline assembly differs: %s", RenderSpans(spans))
	}
}

// busAdapter lets the helper publish through a bus as if it were a sink.
type busAdapter struct{ b *Bus }

func (a busAdapter) Emit(ev Event) { a.b.Publish(ev) }

func BenchmarkRingEventsOf(b *testing.B) {
	r := NewRing(0)
	for i := 0; i < 4096; i++ {
		kind := KSend
		if i%8 == 0 {
			kind = KDrop
		}
		r.Emit(Event{At: sim.Time(i), Kind: kind})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.EventsOf(KDrop); len(got) != 512 {
			b.Fatalf("matches = %d", len(got))
		}
	}
}

// BenchmarkSpanSinkEmit is one queue busy period per iteration — the
// span the sink opens and closes most often: 60 031 of the 64 293 spans
// of a seed-1 telemetry10 round.
func BenchmarkSpanSinkEmit(b *testing.B) {
	var sink *SpanSink
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(64<<10) == 0 {
			sink = NewSpanSink() // a round's worth of spans per sink, as in a sweep
		}
		at := sim.Time(i) * time.Microsecond
		sink.Emit(Event{At: at, Comp: CompQueue, Kind: KEnqueue, Src: "fwd", Flow: NoFlow, A: 1})
		sink.Emit(Event{At: at, Comp: CompLink, Kind: KLinkTx, Src: "fwd", Flow: NoFlow, A: 1000, B: 0})
	}
}

// BenchmarkSpanSinkEmitRecovery is one RR episode per iteration:
// recovery-enter, an actnum instant in the retreat, retreat-probe, a
// further loss in the probe, recovery-exit — three spans, three with
// attributes or instants.
func BenchmarkSpanSinkEmitRecovery(b *testing.B) {
	var sink *SpanSink
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(16<<10) == 0 {
			sink = NewSpanSink()
		}
		at := sim.Time(i) * time.Millisecond
		sink.Emit(Event{At: at, Comp: CompRR, Kind: KRecoveryEnter, Flow: 0, A: 16, B: 8})
		sink.Emit(Event{At: at, Comp: CompRR, Kind: KActnum, Flow: 0, A: 7})
		sink.Emit(Event{At: at, Comp: CompRR, Kind: KRetreatProbe, Flow: 0, A: 8})
		sink.Emit(Event{At: at, Comp: CompRR, Kind: KFurtherLoss, Flow: 0, A: 7, B: 2})
		sink.Emit(Event{At: at, Comp: CompRR, Kind: KRecoveryExit, Flow: 0, A: 8})
	}
}
