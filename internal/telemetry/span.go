package telemetry

import (
	"fmt"
	"math/bits"
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

// SpanSink assembles spans from the event stream. It is a Sink; attach
// it to a bus, or decode a log into it (DecodeNDJSON).
// A nil *SpanSink is a valid no-op, mirroring the nil-bus null default.
//
// The sink keeps each span as a 40-byte spanRec with no pointers; the
// few spans that carry attributes or instants add one spanExtra, and
// each instant one spanInstant. Spans builds the public views on demand.
type SpanSink struct {
	spans    Chunked[spanRec] // a span's ID is its position here
	extras   Chunked[spanExtra]
	instants Chunked[spanInstant]

	at Segmenter

	flows PerFlow[flowSpans]
	srcs  []string         // interned queue names after srcs[0], the flow spans' ""
	srcID map[string]int32 // index into srcs
	busy  []spanRef        // by source: the open queue busy period
}

// spanRec is one stored span. Its ID is its position in the store.
type spanRec struct {
	begin, end sim.Time
	parent     int32 // parent span ID, or -1 for a root span
	flow       int32
	seg        int32
	src        int32 // index into SpanSink.srcs; 0 for a flow span
	extra      int32 // 1 + index into SpanSink.extras; 0 for none
	kind       SpanKind
	open       bool
}

// spanAttr is a fixed attribute slot: the sink writes no other names.
type spanAttr uint8

const (
	attrEnterCwnd spanAttr = iota
	attrSsthresh
	attrExitCwnd
	attrTimeout
	attrFurtherLosses
	attrActnum
	numSpanAttrs
)

var spanAttrNames = [numSpanAttrs]string{
	attrEnterCwnd:     "enter_cwnd",
	attrSsthresh:      "ssthresh",
	attrExitCwnd:      "exit_cwnd",
	attrTimeout:       "timeout",
	attrFurtherLosses: "further_losses",
	attrActnum:        "actnum",
}

// spanExtra is a span's attributes, in slots with a presence mask, and
// its instants, a list threaded through SpanSink.instants.
type spanExtra struct {
	attrs       [numSpanAttrs]float64
	set         uint8 // bit a: attrs[a] was written
	first, last int32 // 1 + index into SpanSink.instants; 0 for none
}

// spanInstant is one SpanEvent as stored.
type spanInstant struct {
	at   sim.Time
	a, b float64
	next int32 // 1 + index of the span's next instant; 0 at the end
	kind Kind
}

// spanRef names a span as 1 + its ID, so the zero value names none.
type spanRef int32

// flowSpans are one flow's open spans.
type flowSpans struct {
	conn spanRef // connection lifetime
	rec  spanRef // recovery episode
	sub  spanRef // retreat/probe child of rec
}

// NewSpanSink returns an empty span assembler.
func NewSpanSink() *SpanSink { return &SpanSink{} }

func (s *SpanSink) span(r spanRef) *spanRec { return s.spans.At(int(r) - 1) }

func (s *SpanSink) open(kind SpanKind, flow int32, src int32, parent spanRef, at sim.Time) spanRef {
	s.spans.Append(spanRec{
		begin:  at,
		end:    at,
		parent: int32(parent) - 1,
		flow:   flow,
		seg:    int32(s.at.Seg),
		src:    src,
		kind:   kind,
		open:   true,
	})
	return spanRef(s.spans.Len())
}

func (s *SpanSink) close(r spanRef, at sim.Time) {
	if r == 0 {
		return
	}
	sp := s.span(r)
	sp.end = at
	sp.open = false
}

// extra returns r's side-table entry, adding one on first use.
func (s *SpanSink) extra(r spanRef) *spanExtra {
	sp := s.span(r)
	if sp.extra == 0 {
		x := s.extras.Append(spanExtra{})
		sp.extra = int32(s.extras.Len())
		return x
	}
	return s.extras.At(int(sp.extra) - 1)
}

func (s *SpanSink) attr(r spanRef, a spanAttr, v float64) {
	x := s.extra(r)
	x.attrs[a] = v
	x.set |= 1 << a
}

func (s *SpanSink) instant(r spanRef, ev *Event) {
	x := s.extra(r)
	s.instants.Append(spanInstant{at: ev.At, a: ev.A, b: ev.B, kind: ev.Kind})
	n := int32(s.instants.Len())
	if x.last == 0 {
		x.first = n
	} else {
		s.instants.At(int(x.last) - 1).next = n
	}
	x.last = n
}

// source interns a queue's name.
func (s *SpanSink) source(name string) int32 {
	id, ok := s.srcID[name]
	if !ok {
		if s.srcID == nil {
			s.srcID = make(map[string]int32)
			s.srcs, s.busy = []string{""}, make([]spanRef, 1)
		}
		id = int32(len(s.srcs))
		s.srcs = append(s.srcs, name)
		s.busy = append(s.busy, 0)
		s.srcID[name] = id
	}
	return id
}

// rollSegment abandons all open spans — they stay open with End at the
// last time seen — and starts a fresh segment. A span is open exactly
// while a flow or a queue names it.
func (s *SpanSink) rollSegment() {
	stamp := func(r spanRef) {
		if r != 0 {
			s.span(r).end = s.at.Last
		}
	}
	s.flows.Each(func(_ int32, f *flowSpans) {
		stamp(f.conn)
		stamp(f.rec)
		stamp(f.sub)
	})
	for _, r := range s.busy {
		stamp(r)
	}
	s.flows.Reset()
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
		if ev.Comp == CompQueue {
			if src := s.source(ev.Src); s.busy[src] == 0 {
				s.busy[src] = s.open(SpanQueueBusy, NoFlow, src, 0, ev.At)
			}
		}
		return
	case KLinkTx:
		// The link leaving zero occupancy behind ends the busy period.
		if ev.B == 0 {
			if src, ok := s.srcID[ev.Src]; ok && s.busy[src] != 0 {
				s.close(s.busy[src], ev.At)
				s.busy[src] = 0
			}
		}
		return
	}

	fl := s.flows.Get(ev.Flow)
	if fl == nil {
		return
	}
	// Connection lifetime: opened lazily by the first flow-scoped
	// sender/receiver/RR event, closed by flow-done. Gauge samples and
	// flow accounting are passive instrumentation, not connection
	// activity — a sampler tick or a stats event landing after flow-done
	// must not resurrect the span.
	if fl.conn == 0 && ev.Kind != KSample && ev.Kind != KFlowStats {
		switch ev.Comp {
		case CompSender, CompRecv, CompRR:
			fl.conn = s.open(SpanConn, ev.Flow, 0, 0, ev.At)
		}
	}

	if endsEpisode(ev.Kind) && fl.rec != 0 {
		switch ev.Kind {
		case KRecoveryExit:
			s.attr(fl.rec, attrExitCwnd, ev.A)
		case KTimeout:
			s.attr(fl.rec, attrTimeout, 1)
		}
		s.close(fl.sub, ev.At) // sub-phase first
		s.close(fl.rec, ev.At)
		fl.sub, fl.rec = 0, 0
	}
	switch ev.Kind {
	case KFlowDone:
		s.close(fl.conn, ev.At) // no span outlives its connection
		fl.conn = 0

	case KRecoveryEnter:
		fl.rec = s.open(SpanRecovery, ev.Flow, 0, fl.conn, ev.At)
		s.attr(fl.rec, attrEnterCwnd, ev.A)
		s.attr(fl.rec, attrSsthresh, ev.B)
		// Only RR has the retreat/probe split; baseline variants emit
		// recovery-enter from the sender path and get a flat episode.
		if ev.Comp == CompRR {
			fl.sub = s.open(SpanRetreat, ev.Flow, 0, fl.rec, ev.At)
		}

	case KRetreatProbe:
		if fl.rec == 0 {
			return
		}
		s.close(fl.sub, ev.At)
		fl.sub = s.open(SpanProbe, ev.Flow, 0, fl.rec, ev.At)
		s.attr(fl.sub, attrActnum, ev.A)

	case KFurtherLoss, KActnum:
		if fl.rec == 0 {
			return
		}
		// Instants attach to the innermost open span — the retreat or
		// probe sub-phase when RR is active — so the exported trace
		// keeps them inside the slice they occurred in.
		target := fl.rec
		if fl.sub != 0 {
			target = fl.sub
		}
		s.instant(target, &ev)
		if ev.Kind == KFurtherLoss {
			x := s.extra(fl.rec)
			s.attr(fl.rec, attrFurtherLosses, x.attrs[attrFurtherLosses]+1)
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

// Spans returns the assembled spans in open order, as views built from
// one []Span when it is called: later events do not move them. Spans
// still open (truncated stream) keep Open=true with End at the last time
// seen in their segment. Attrs is nil on a span that never had one set.
func (s *SpanSink) Spans() []*Span {
	if s == nil {
		return nil
	}
	views := make([]Span, s.spans.Len())
	out := make([]*Span, len(views))
	events := make([]SpanEvent, 0, s.instants.Len()) // every span's Events, back to back
	id := 0
	for _, chunk := range s.spans.Chunks() {
		for i := range chunk {
			sp, v := &chunk[i], &views[id]
			*v = Span{
				ID:     id,
				Parent: int(sp.parent),
				Kind:   sp.kind,
				Flow:   sp.flow,
				Seg:    int(sp.seg),
				Begin:  sp.begin,
				End:    sp.end,
				Open:   sp.open,
			}
			if sp.src != 0 {
				v.Src = s.srcs[sp.src]
			}
			if sp.open && v.Seg == s.at.Seg {
				v.End = s.at.Last
			}
			if sp.extra != 0 {
				x := s.extras.At(int(sp.extra) - 1)
				if x.set != 0 {
					v.Attrs = make(map[string]float64, bits.OnesCount8(x.set))
					for a, name := range spanAttrNames {
						if x.set&(1<<a) != 0 {
							v.Attrs[name] = x.attrs[a]
						}
					}
				}
				lo := len(events)
				for n := x.first; n != 0; {
					in := s.instants.At(int(n) - 1)
					events = append(events, SpanEvent{At: in.at, Name: in.kind.String(), A: in.a, B: in.b})
					n = in.next
				}
				if hi := len(events); hi > lo {
					v.Events = events[lo:hi:hi]
				}
			}
			out[id] = v
			id++
		}
	}
	return out
}

// records calls f on every stored span in open order, building no view:
// SummarySink and TimelineSink read a few fields of a few thousand recovery
// spans, and Spans would build one for every queue busy period too.
// A span still open keeps the End it was last stamped with.
func (s *SpanSink) records(f func(sp *spanRec)) {
	for _, chunk := range s.spans.Chunks() {
		for i := range chunk {
			f(&chunk[i])
		}
	}
}

// attrOf returns sp's attribute a, or 0 when it was never set — what the
// view's Attrs map yields for a missing name.
func (s *SpanSink) attrOf(sp *spanRec, a spanAttr) float64 {
	if sp.extra == 0 {
		return 0
	}
	return s.extras.At(int(sp.extra) - 1).attrs[a]
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
