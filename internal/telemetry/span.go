package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"rrtcp/internal/sim"
)

// The span layer turns the bus's point events into intervals: a
// recovery episode is not one event but a region of time with internal
// structure (the retreat→probe split, further-loss detections, actnum
// updates), and the questions the paper asks — how long did probe last,
// how did actnum evolve across it — are questions about that region.
// SpanSink is a bus subscriber that assembles the intervals online;
// RenderSpans and WriteChromeTrace are its text and Perfetto exports.

// SpanKind classifies a span.
type SpanKind uint8

// Span kinds.
const (
	// SpanConn covers a connection's lifetime: first sender event
	// through the flow-done event.
	SpanConn SpanKind = iota + 1
	// SpanRecovery covers one loss-recovery episode
	// (recovery-enter → recovery-exit).
	SpanRecovery
	// SpanRetreat is RR's back-off sub-phase, a child of SpanRecovery.
	SpanRetreat
	// SpanProbe is RR's conservative-growth sub-phase, a child of
	// SpanRecovery.
	SpanProbe
	// SpanQueueBusy covers a bottleneck-queue busy period: first
	// enqueue into an empty queue through the transmission that drains
	// it.
	SpanQueueBusy
)

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	switch k {
	case SpanConn:
		return "conn"
	case SpanRecovery:
		return "recovery"
	case SpanRetreat:
		return "retreat"
	case SpanProbe:
		return "probe"
	case SpanQueueBusy:
		return "queue-busy"
	default:
		return "?"
	}
}

// SpanEvent is a point event attached to a span (a further-loss
// detection, an actnum update) — an instant, not an interval.
type SpanEvent struct {
	At   sim.Time
	Name string
	A, B float64
}

// Span is one assembled interval. IDs are assigned in open order on the
// single simulation goroutine, so they are deterministic.
type Span struct {
	ID     int
	Parent int // parent span ID, or -1 for a root span
	Kind   SpanKind
	Flow   int32 // NoFlow for instance-scoped spans (queues)
	Src    string
	// Seg is the stream segment the span belongs to. A segment rolls
	// whenever sim time regresses in the event stream — which happens
	// when several runs are republished back-to-back onto one bus (the
	// fig5 multi-variant export) — so spans from different runs never
	// interleave.
	Seg   int
	Begin sim.Time
	End   sim.Time
	// Open marks a span that never saw its closing event (a truncated
	// log, or the segment rolled underneath it); End then holds the
	// last time seen in the segment.
	Open   bool
	Attrs  map[string]float64
	Events []SpanEvent
}

// Duration reports End − Begin.
func (s *Span) Duration() sim.Time { return s.End - s.Begin }

func (s *Span) attr(name string, v float64) {
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64, 4)
	}
	s.Attrs[name] = v
}

// SpanSink assembles spans from the event stream. It is a Sink; attach
// it to a bus, or Replay a decoded log into it.
// A nil *SpanSink is a valid no-op, mirroring the nil-bus null default.
type SpanSink struct {
	spans Chunked[Span] // flows and busy point into it: addresses are stable

	at Segmenter

	flows  []flowSpans          // indexed by flow id, grown on first sight of a flow
	sparse map[int32]*flowSpans // flows with an id of maxDenseFlow or more
	busy   map[string]*Span
}

// maxDenseFlow bounds the flow-indexed table. A simulation numbers its
// flows densely from 0; a larger id can only come from a hand-made or
// damaged log, and its spans live in a map so that one such id cannot
// make the sink allocate in proportion to it.
const maxDenseFlow = 1 << 16

// flowSpans are one flow's open spans; nil where none is open.
type flowSpans struct {
	conn *Span // connection lifetime
	rec  *Span // recovery episode
	sub  *Span // retreat/probe child of rec
}

// NewSpanSink returns an empty span assembler.
func NewSpanSink() *SpanSink {
	return &SpanSink{busy: make(map[string]*Span)}
}

// flow returns the open spans of a flow-scoped event's flow, growing the
// table on first sight; nil for an event that names no flow.
func (s *SpanSink) flow(id int32) *flowSpans {
	if id < 0 {
		return nil
	}
	if int(id) < len(s.flows) {
		return &s.flows[id]
	}
	if id >= maxDenseFlow {
		f := s.sparse[id]
		if f == nil {
			if s.sparse == nil {
				s.sparse = make(map[int32]*flowSpans)
			}
			f = new(flowSpans)
			s.sparse[id] = f
		}
		return f
	}
	s.flows = append(s.flows, make([]flowSpans, int(id)+1-len(s.flows))...)
	return &s.flows[id]
}

func (s *SpanSink) open(kind SpanKind, flow int32, src string, parent int, at sim.Time) *Span {
	return s.spans.Append(Span{
		ID:     s.spans.Len(),
		Parent: parent,
		Kind:   kind,
		Flow:   flow,
		Src:    src,
		Seg:    s.at.Seg,
		Begin:  at,
		End:    at,
		Open:   true,
	})
}

func closeSpan(sp *Span, at sim.Time) {
	if sp == nil {
		return
	}
	sp.End = at
	sp.Open = false
}

// endOpen stamps the spans still open in the current segment with the
// last time seen.
func (s *SpanSink) endOpen() {
	for _, chunk := range s.spans.Chunks() {
		for i := range chunk {
			if sp := &chunk[i]; sp.Open && sp.Seg == s.at.Seg {
				sp.End = s.at.Last
			}
		}
	}
}

// rollSegment abandons all open spans (they stay Open with End at the
// last time seen) and starts a fresh segment.
func (s *SpanSink) rollSegment() {
	s.endOpen()
	clear(s.flows)
	clear(s.sparse)
	clear(s.busy)
}

// Emit implements Sink.
func (s *SpanSink) Emit(ev Event) {
	if s == nil {
		return
	}
	// Sweep progress events fire on the coordinating goroutine at t=0
	// between simulations; they are not part of any run's timeline.
	if ev.Comp == CompSweep {
		return
	}
	if s.at.Regressed(&ev) {
		s.rollSegment()
	}
	s.at.Advance(&ev)

	switch ev.Kind {
	case KEnqueue:
		if ev.Comp == CompQueue && s.busy[ev.Src] == nil {
			s.busy[ev.Src] = s.open(SpanQueueBusy, NoFlow, ev.Src, -1, ev.At)
		}
		return
	case KLinkTx:
		// The link leaving zero occupancy behind ends the busy period.
		if ev.B == 0 {
			if sp := s.busy[ev.Src]; sp != nil {
				closeSpan(sp, ev.At)
				delete(s.busy, ev.Src)
			}
		}
		return
	}

	fl := s.flow(ev.Flow)
	if fl == nil {
		return
	}
	// Connection lifetime: opened lazily by the first flow-scoped
	// sender/receiver/RR event, closed by flow-done. Gauge samples and
	// flow accounting are passive instrumentation, not connection
	// activity — a sampler tick or a stats event landing after flow-done
	// must not resurrect the span.
	if fl.conn == nil && ev.Kind != KSample && ev.Kind != KFlowStats {
		switch ev.Comp {
		case CompSender, CompRecv, CompRR:
			fl.conn = s.open(SpanConn, ev.Flow, "", -1, ev.At)
		}
	}

	if endsEpisode(ev.Kind) && fl.rec != nil {
		switch ev.Kind {
		case KRecoveryExit:
			fl.rec.attr("exit_cwnd", ev.A)
		case KTimeout:
			fl.rec.attr("timeout", 1)
		}
		closeSpan(fl.sub, ev.At) // sub-phase first
		closeSpan(fl.rec, ev.At)
		fl.sub, fl.rec = nil, nil
	}
	switch ev.Kind {
	case KFlowDone:
		closeSpan(fl.conn, ev.At) // no span outlives its connection
		fl.conn = nil

	case KRecoveryEnter:
		parent := -1
		if fl.conn != nil {
			parent = fl.conn.ID
		}
		fl.rec = s.open(SpanRecovery, ev.Flow, "", parent, ev.At)
		fl.rec.attr("enter_cwnd", ev.A)
		fl.rec.attr("ssthresh", ev.B)
		// Only RR has the retreat/probe split; baseline variants emit
		// recovery-enter from the sender path and get a flat episode.
		if ev.Comp == CompRR {
			fl.sub = s.open(SpanRetreat, ev.Flow, "", fl.rec.ID, ev.At)
		}

	case KRetreatProbe:
		if fl.rec == nil {
			return
		}
		closeSpan(fl.sub, ev.At)
		fl.sub = s.open(SpanProbe, ev.Flow, "", fl.rec.ID, ev.At)
		fl.sub.attr("actnum", ev.A)

	case KFurtherLoss, KActnum:
		if fl.rec == nil {
			return
		}
		// Instants attach to the innermost open span — the retreat or
		// probe sub-phase when RR is active — so the exported trace
		// keeps them inside the slice they occurred in.
		target := fl.rec
		if fl.sub != nil {
			target = fl.sub
		}
		target.Events = append(target.Events, SpanEvent{At: ev.At, Name: ev.Kind.String(), A: ev.A, B: ev.B})
		if ev.Kind == KFurtherLoss {
			fl.rec.attr("further_losses", fl.rec.Attrs["further_losses"]+1)
		}
	}
}

// endsEpisode reports whether an event of kind k ends its flow's open
// recovery episode: at its recovery-exit, or cut short by a
// retransmission timeout (no strategy emits an exit then), by the next
// recovery-enter (Tahoe never emits one) or by the end of the flow.
// SpanSink's recovery spans and MetricsSink's episode_s both end an
// episode by this one rule.
func endsEpisode(k Kind) bool {
	switch k {
	case KRecoveryExit, KTimeout, KRecoveryEnter, KFlowDone:
		return true
	}
	return false
}

// Spans returns the assembled spans in open order. Spans still open
// (truncated stream) keep Open=true with End at the last time seen in
// their segment.
func (s *SpanSink) Spans() []*Span {
	if s == nil {
		return nil
	}
	s.endOpen()
	out := make([]*Span, 0, s.spans.Len())
	for _, chunk := range s.spans.Chunks() {
		for i := range chunk {
			out = append(out, &chunk[i])
		}
	}
	return out
}

// RenderSpans formats spans as an indented tree, one segment per block,
// children nested under their parents in time order.
func RenderSpans(spans []*Span) string {
	var b strings.Builder
	if len(spans) == 0 {
		b.WriteString("no spans\n")
		return b.String()
	}
	children := make(map[int][]*Span)
	var roots []*Span
	for _, sp := range spans {
		if sp.Parent < 0 {
			roots = append(roots, sp)
		} else {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	seg := -1
	var render func(sp *Span, depth int)
	render = func(sp *Span, depth int) {
		indent := strings.Repeat("  ", depth)
		label := sp.Kind.String()
		if sp.Src != "" {
			label += " " + sp.Src
		}
		if sp.Flow != NoFlow {
			label += fmt.Sprintf(" flow=%d", sp.Flow)
		}
		open := ""
		if sp.Open {
			open = "  [open]"
		}
		fmt.Fprintf(&b, "%s%-28s %11.6f .. %11.6f  (%9.6fs)%s%s\n",
			indent, label, sp.Begin.Seconds(), sp.End.Seconds(),
			sp.Duration().Seconds(), renderAttrs(sp.Attrs), open)
		for _, evt := range sp.Events {
			fmt.Fprintf(&b, "%s  @%.6f %s a=%g b=%g\n",
				indent, evt.At.Seconds(), evt.Name, evt.A, evt.B)
		}
		for _, c := range children[sp.ID] {
			render(c, depth+1)
		}
	}
	for _, sp := range roots {
		if sp.Seg != seg {
			seg = sp.Seg
			fmt.Fprintf(&b, "segment %d\n", seg)
		}
		render(sp, 1)
	}
	return b.String()
}

func renderAttrs(attrs map[string]float64) string {
	if len(attrs) == 0 {
		return ""
	}
	names := make([]string, 0, len(attrs))
	for k := range attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "  %s=%g", k, attrs[k])
	}
	return b.String()
}
