package telemetry

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"rrtcp/internal/sim"
)

// This file is the read-side analysis cmd/rrtrace is built on, each
// report a sink fed in one pass: recovery episode extraction and
// per-queue drop accounting (SummarySink), event filtering (FilterSink),
// and an ASCII timeline of one flow's cwnd/actnum/phase evolution
// (TimelineSink).

// Episode is one recovery pass through the RR (or baseline) state
// machine: a SpanSink recovery span and its first probe sub-phase.
type Episode struct {
	Flow    int32
	Start   float64 // recovery-enter time (s)
	ProbeAt float64 // retreat→probe flip time (s); <0 if never reached
	End     float64 // when it ended (s): recovery-exit, timeout, next enter or flow-done; <0 if open at EOF
	// ExitCwnd is the hand-off window at exit (RR: actnum×MSS in packets).
	ExitCwnd float64
	// FurtherLosses counts ndup<actnum detections inside the episode.
	FurtherLosses int
	// Timeout reports the episode ended in a retransmission timeout
	// rather than a clean exit.
	Timeout bool
}

// RetreatDur is the retreat sub-phase duration in seconds (0 when the
// probe flip never happened).
func (e Episode) RetreatDur() float64 {
	if e.ProbeAt < 0 {
		if e.End >= 0 {
			return e.End - e.Start
		}
		return 0
	}
	return e.ProbeAt - e.Start
}

// ProbeDur is the probe sub-phase duration in seconds.
func (e Episode) ProbeDur() float64 {
	if e.ProbeAt < 0 || e.End < 0 {
		return 0
	}
	return e.End - e.ProbeAt
}

// FlowSummary aggregates one flow's events within one stream segment: a
// republished multi-run log numbers every run's flows from 0, so the
// same id in another segment is another connection.
type FlowSummary struct {
	Seg         int
	Flow        int32
	Variant     string // from the flow-start lifecycle event, "" in older logs
	Sends       int
	Retransmits int
	Timeouts    int
	DupAcks     int
	Done        bool
	DoneAt      float64
	Episodes    []Episode
}

// QueueDrops is the drop count of one queue/loss instance.
type QueueDrops struct {
	Comp   string
	Src    string
	Drops  int
	Forced int // KDrop events with forced=1 (queue overflow vs RED early)
}

// SampleStats aggregates one sampled gauge series ("sample" events from
// the periodic Sampler): the series identity plus count and range.
type SampleStats struct {
	Comp string
	Src  string // gauge name (cwnd, srtt, qlen, ...)
	Flow int32  // NoFlow for flowless sources (queues)
	N    int
	Min  float64
	Max  float64
	Last float64
}

// instKey identifies one instance within a component, and with a flow
// one sampled series.
type instKey struct {
	comp Component
	src  string
	flow int32
}

// secs is t in seconds: one correctly rounded division, so it is the
// very float64 the log's decimal "t" parses to.
func secs(t sim.Time) float64 { return float64(t) / 1e9 }

// OverloadStats aggregates one resource's guard "overload" events: how
// often the budget tripped and the last observed/limit pair.
type OverloadStats struct {
	Resource string
	Trips    int
	Observed float64 // last trip's observed value
	Limit    float64
}

// TelemetryDropStats is the final drop accounting of one bounded sink
// ("telemetry-drops" markers carry cumulative counts, so the last one
// in the log is the total).
type TelemetryDropStats struct {
	Src     string
	Dropped float64
	Kept    float64
}

// LogSummary is the full analysis of an event log.
type LogSummary struct {
	From, To float64
	Events   int
	// FlowsStarted / FlowsCompleted count the flow-start / flow-done
	// lifecycle events — at scale the log may carry only those (plus
	// aggregates) rather than the full per-flow streams.
	FlowsStarted   int
	FlowsCompleted int
	Flows          []FlowSummary        // sorted by segment, then flow id
	Queues         []QueueDrops         // sorted by comp then src
	Samples        []SampleStats        // sorted by comp, src, flow
	Sweeps         []SweepStats         // in log order
	Overload       []OverloadStats      // sorted by resource
	Drops          []TelemetryDropStats // sorted by src
}

// SummarySink folds an event log into a LogSummary as the events stream
// past: per-flow recovery episodes, per-queue drop counts and the rest.
// Flow rows and episodes are per segment (see Segmenter); drops, sampled
// series and the rest are whole-log totals. The episodes are SpanSink's
// recovery spans, so they end where every other consumer ends one.
type SummarySink struct {
	sum       LogSummary
	spans     SpanSink // its Segmenter numbers the flow rows too
	flows     map[segFlow]*FlowSummary
	drops     map[instKey]*QueueDrops
	samples   map[instKey]*SampleStats
	overloads map[string]*OverloadStats
	tdrops    map[string]*TelemetryDropStats
	sweep     SweepStats // kept in sum.Sweeps when it ends, at the next start or at the end
}

// segFlow names one flow row: a flow id within a stream segment.
type segFlow struct {
	seg  int
	flow int32
}

// NewSummarySink returns an empty summary fold.
func NewSummarySink() *SummarySink { return &SummarySink{} }

// entry returns (*m)[k], first storing a copy of v there if k is absent.
func entry[K comparable, V any](m *map[K]*V, k K, v V) *V {
	p := (*m)[k]
	if p == nil {
		if *m == nil {
			*m = map[K]*V{}
		}
		p = new(V)
		*p = v
		(*m)[k] = p
	}
	return p
}

// sorted returns copies of m's values in order.
func sorted[K comparable, V any](m map[K]*V, order func(a, b V) int) []V {
	var out []V
	for _, v := range m {
		out = append(out, *v)
	}
	slices.SortFunc(out, order)
	return out
}

func (s *SummarySink) flowOf(id segFlow) *FlowSummary {
	return entry(&s.flows, id, FlowSummary{Seg: id.seg, Flow: id.flow, DoneAt: -1})
}

// Emit implements Sink.
func (s *SummarySink) Emit(ev Event) {
	s.spans.Emit(ev)
	sum := &s.sum
	t := secs(ev.At)
	if sum.Events == 0 || t < sum.From {
		sum.From = t
	}
	if t > sum.To {
		sum.To = t
	}
	sum.Events++
	switch ev.Kind {
	case KDrop, KMark:
		d := entry(&s.drops, instKey{ev.Comp, ev.Src, NoFlow}, QueueDrops{Comp: ev.Comp.String(), Src: ev.Src})
		d.Drops++
		if ev.Kind == KDrop && ev.B != 0 {
			d.Forced++
		}
		return
	case KSample:
		sm := entry(&s.samples, instKey{ev.Comp, ev.Src, ev.Flow}, SampleStats{Comp: ev.Comp.String(), Src: ev.Src, Flow: ev.Flow})
		if sm.N == 0 || ev.A < sm.Min {
			sm.Min = ev.A
		}
		if sm.N == 0 || ev.A > sm.Max {
			sm.Max = ev.A
		}
		sm.N++
		sm.Last = ev.A
		return
	case KSweepStart, KSweepJob, KSweepJobTime, KSweepWorker, KSweepStall, KSweepDegraded, KSweepDone:
		if ev.Kind == KSweepStart && s.sweep.open() {
			sum.Sweeps = append(sum.Sweeps, s.sweep)
		}
		if s.sweep.apply(ev); s.sweep.Done {
			sum.Sweeps = append(sum.Sweeps, s.sweep)
		}
		return
	case KOverload:
		o := entry(&s.overloads, ev.Src, OverloadStats{Resource: ev.Src})
		o.Trips++
		o.Observed, o.Limit = ev.A, ev.B
		return
	case KTelemetryDrops:
		// Cumulative counters: the latest marker supersedes.
		d := entry(&s.tdrops, ev.Src, TelemetryDropStats{Src: ev.Src})
		d.Dropped, d.Kept = ev.A, ev.B
		return
	}
	if ev.Flow == NoFlow {
		return
	}
	f := s.flowOf(segFlow{s.spans.at.Seg, ev.Flow})
	switch ev.Kind {
	case KSend:
		f.Sends++
	case KRetransmit:
		f.Retransmits++
	case KDupAck:
		f.DupAcks++
	case KTimeout:
		f.Timeouts++
	case KFlowDone:
		f.Done = true
		f.DoneAt = t
	case KFlowStart:
		sum.FlowsStarted++
		f.Variant = ev.Src
	case KFlowStats:
		sum.FlowsCompleted++
		if f.Variant == "" {
			f.Variant = ev.Src
		}
		f.Done = true
		if f.DoneAt < 0 {
			f.DoneAt = t
		}
	}
}

// Summary ends the fold and returns the summary of every event emitted
// so far. Call it once, after the last event.
func (s *SummarySink) Summary() LogSummary {
	// Spans come in open order, so each flow's episodes are in time order
	// and a probe sub-phase follows the episode it belongs to.
	s.spans.records(func(sp *spanRec) {
		id := segFlow{int(sp.seg), sp.flow}
		switch sp.kind {
		case SpanRecovery:
			ep := Episode{
				Flow: sp.flow, Start: secs(sp.begin), ProbeAt: -1, End: -1,
				ExitCwnd:      s.spans.attrOf(sp, attrExitCwnd),
				FurtherLosses: int(s.spans.attrOf(sp, attrFurtherLosses)),
				Timeout:       s.spans.attrOf(sp, attrTimeout) != 0,
			}
			if !sp.open {
				ep.End = secs(sp.end)
			}
			f := s.flowOf(id)
			f.Episodes = append(f.Episodes, ep)
		case SpanProbe:
			eps := s.flows[id].Episodes
			if ep := &eps[len(eps)-1]; ep.ProbeAt < 0 {
				ep.ProbeAt = secs(sp.begin)
			}
		}
	})
	sum := s.sum
	sum.Flows = sorted(s.flows, func(a, b FlowSummary) int {
		return cmp.Or(cmp.Compare(a.Seg, b.Seg), cmp.Compare(a.Flow, b.Flow))
	})
	sum.Queues = sorted(s.drops, func(a, b QueueDrops) int {
		return cmp.Or(strings.Compare(a.Comp, b.Comp), strings.Compare(a.Src, b.Src))
	})
	sum.Samples = sorted(s.samples, func(a, b SampleStats) int {
		return cmp.Or(strings.Compare(a.Comp, b.Comp), strings.Compare(a.Src, b.Src), cmp.Compare(a.Flow, b.Flow))
	})
	sum.Overload = sorted(s.overloads, func(a, b OverloadStats) int { return strings.Compare(a.Resource, b.Resource) })
	sum.Drops = sorted(s.tdrops, func(a, b TelemetryDropStats) int { return strings.Compare(a.Src, b.Src) })
	if s.sweep.open() { // log ended mid-sweep
		sum.Sweeps = append(sum.Sweeps, s.sweep)
	}
	return sum
}

// Render formats the summary as the tables rrtrace prints.
func (s LogSummary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d events over %.3fs..%.3fs\n", s.Events, s.From, s.To)
	if s.FlowsStarted > 0 || s.FlowsCompleted > 0 {
		fmt.Fprintf(&b, "flows: %d started, %d completed\n", s.FlowsStarted, s.FlowsCompleted)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-4s %-5s %-6s %-5s %-9s %-8s %-9s %s\n",
		"seg", "flow", "sends", "rtx", "timeouts", "dupacks", "episodes", "done")
	for _, f := range s.Flows {
		done := "-"
		if f.Done {
			done = fmt.Sprintf("%.3fs", f.DoneAt)
		}
		fmt.Fprintf(&b, "%-4d %-5d %-6d %-5d %-9d %-8d %-9d %s\n",
			f.Seg, f.Flow, f.Sends, f.Retransmits, f.Timeouts, f.DupAcks, len(f.Episodes), done)
	}
	b.WriteByte('\n')
	any := false
	for _, f := range s.Flows {
		for i, ep := range f.Episodes {
			if !any {
				fmt.Fprintf(&b, "%-4s %-5s %-3s %-9s %-11s %-11s %-9s %-8s %s\n",
					"seg", "flow", "ep", "enter", "retreat", "probe", "further", "exitcwnd", "end")
				any = true
			}
			end := "open"
			switch {
			case ep.Timeout:
				end = "timeout"
			case ep.End >= 0:
				end = "exit"
			}
			probe := "-"
			if ep.ProbeAt >= 0 {
				probe = fmt.Sprintf("%.3fs", ep.ProbeDur())
			}
			fmt.Fprintf(&b, "%-4d %-5d %-3d %-9s %-11s %-11s %-9d %-8.1f %s\n",
				f.Seg, f.Flow, i+1, fmt.Sprintf("%.3fs", ep.Start),
				fmt.Sprintf("%.3fs", ep.RetreatDur()), probe,
				ep.FurtherLosses, ep.ExitCwnd, end)
		}
	}
	if !any {
		b.WriteString("no recovery episodes\n")
	}
	b.WriteByte('\n')
	if len(s.Queues) == 0 {
		b.WriteString("no drops recorded\n")
	} else {
		fmt.Fprintf(&b, "%-8s %-10s %-7s %s\n", "comp", "src", "drops", "forced")
		for _, q := range s.Queues {
			fmt.Fprintf(&b, "%-8s %-10s %-7d %d\n", q.Comp, q.Src, q.Drops, q.Forced)
		}
	}
	if len(s.Samples) > 0 {
		b.WriteByte('\n')
		fmt.Fprintf(&b, "sampled series:\n%-8s %-10s %-5s %-7s %-10s %-10s %s\n",
			"comp", "gauge", "flow", "n", "min", "max", "last")
		for _, sm := range s.Samples {
			flow := "-"
			if sm.Flow != NoFlow {
				flow = fmt.Sprintf("%d", sm.Flow)
			}
			fmt.Fprintf(&b, "%-8s %-10s %-5s %-7d %-10.4g %-10.4g %.4g\n",
				sm.Comp, sm.Src, flow, sm.N, sm.Min, sm.Max, sm.Last)
		}
	}
	for _, sw := range s.Sweeps {
		b.WriteByte('\n')
		state := fmt.Sprintf("(log ended mid-sweep at %d/%d)", sw.Completed, sw.Jobs)
		switch {
		case sw.Done && sw.Completed < sw.Jobs:
			state = fmt.Sprintf("stopped at %d/%d in %.3fs", sw.Completed, sw.Jobs, sw.WallS)
		case sw.Done:
			state = fmt.Sprintf("in %.3fs", sw.WallS)
		}
		fmt.Fprintf(&b, "sweep %s: %d jobs on %d workers %s\n",
			label(sw.Name), sw.Jobs, sw.Workers, state)
		if sw.JobTimeN > 0 {
			fmt.Fprintf(&b, "  job wall: n=%d mean=%.4fs max=%.4fs\n",
				sw.JobTimeN, sw.JobTimeMeanS, sw.JobTimeMaxS)
		}
		if sw.Stalls > 0 || sw.Degraded > 0 {
			fmt.Fprintf(&b, "  resilience: %d stall events, %d degraded\n", sw.Stalls, sw.Degraded)
		}
		for _, w := range sw.PerWorker {
			fmt.Fprintf(&b, "  worker %d: %d jobs, %.4fs busy\n", w.Worker, w.Jobs, w.BusyS)
		}
	}
	if len(s.Overload) > 0 {
		b.WriteByte('\n')
		fmt.Fprintf(&b, "overload trips:\n%-12s %-6s %-14s %s\n", "resource", "trips", "observed", "limit")
		for _, o := range s.Overload {
			fmt.Fprintf(&b, "%-12s %-6d %-14.6g %.6g\n", o.Resource, o.Trips, o.Observed, o.Limit)
		}
	}
	if len(s.Drops) > 0 {
		b.WriteByte('\n')
		fmt.Fprintf(&b, "telemetry drops:\n%-12s %-12s %s\n", "sink", "dropped", "kept")
		for _, d := range s.Drops {
			fmt.Fprintf(&b, "%-12s %-12.0f %.0f\n", d.Src, d.Dropped, d.Kept)
		}
	}
	return b.String()
}

// FilterOpts selects events; zero values mean "no constraint".
type FilterOpts struct {
	Flow     int32 // NoFlow matches everything (use FlowSet for flow 0 etc.)
	FlowSet  bool
	Comp     string
	Kind     string
	From, To float64 // To==0 means unbounded
}

// FilterSink forwards to another sink the events matching every set
// constraint, in order. A component or kind name outside the vocabulary
// matches nothing.
type FilterSink struct {
	opts FilterOpts
	comp Component
	kind Kind
	next Sink
}

// NewFilterSink returns a filter in front of next.
func NewFilterSink(opts FilterOpts, next Sink) *FilterSink {
	return &FilterSink{opts: opts, comp: ParseComponent(opts.Comp), kind: ParseKind(opts.Kind), next: next}
}

// Emit implements Sink.
func (f *FilterSink) Emit(ev Event) {
	o := &f.opts
	if o.FlowSet && ev.Flow != o.Flow || o.Comp != "" && ev.Comp != f.comp || o.Kind != "" && ev.Kind != f.kind {
		return
	}
	if t := secs(ev.At); t < o.From || (o.To > 0 && t > o.To) {
		return
	}
	f.next.Emit(ev)
}

// ScatterMark is one character of a Scatter plot.
type ScatterMark struct {
	X, Y float64
	Ch   byte
}

// Scatter draws the marks, in order (a later mark overwrites an earlier
// one in the same cell), on a width×height character grid scaled to
// their bounding box — from zero on the Y axis when yFromZero — and
// returns the rows, top first, and the bounds it used. An axis on which
// all marks coincide is widened by one so the scale is defined.
func Scatter(marks []ScatterMark, width, height int, yFromZero bool) (rows [][]byte, minX, maxX, minY, maxY float64) {
	for i, m := range marks {
		if i == 0 {
			minX, maxX, minY, maxY = m.X, m.X, m.Y, m.Y
		}
		minX, maxX = min(minX, m.X), max(maxX, m.X)
		minY, maxY = min(minY, m.Y), max(maxY, m.Y)
	}
	if yFromZero {
		minY = 0
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	rows = make([][]byte, height)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
	}
	for _, m := range marks {
		x := int((m.X - minX) / (maxX - minX) * float64(width-1))
		y := int((m.Y - minY) / (maxY - minY) * float64(height-1))
		rows[height-1-y][x] = m.Ch
	}
	return rows, minX, maxX, minY, maxY
}

// TimelineSink renders one flow's congestion state over time as ASCII,
// one panel per stream segment the flow appears in (see Segmenter), so
// the runs of a multi-variant log are never overlaid. Each panel is
// labelled with the variant its flow-start event names and plots '*' =
// cwnd and '+' = actnum samples above a phase strip ('r' recovery —
// RR's retreat — 'p' probe, '.' outside recovery). The strip is read
// off SpanSink's recovery spans, fed in the same pass, so a phase ends
// where an episode ends: at recovery-exit, a timeout, the next
// recovery-enter or flow-done.
type TimelineSink struct {
	flow          int32
	width, height int
	panels        []*timelinePanel
	spans         SpanSink // its Segmenter numbers the panels too
}

type timelinePanel struct {
	seg   int
	label string // " (variant)" from flow-start; "" in older logs
	// actnum is drawn after cwnd so it wins a shared cell: the
	// recovery control variable is the interesting one.
	cwnd, actnum []ScatterMark
}

// NewTimelineSink returns a timeline of flow on a width×height plot
// (72×16 when too small to draw).
func NewTimelineSink(flow int32, width, height int) *TimelineSink {
	if width < 8 {
		width = 72
	}
	if height < 4 {
		height = 16
	}
	return &TimelineSink{flow: flow, width: width, height: height}
}

// Emit implements Sink.
func (tl *TimelineSink) Emit(ev Event) {
	tl.spans.Emit(ev)
	if ev.Flow != tl.flow || ev.Comp == CompSweep {
		return
	}
	if seg := tl.spans.at.Seg; len(tl.panels) == 0 || tl.panels[len(tl.panels)-1].seg != seg {
		tl.panels = append(tl.panels, &timelinePanel{seg: seg})
	}
	p, t := tl.panels[len(tl.panels)-1], secs(ev.At)
	switch ev.Kind {
	case KFlowStart:
		p.label = " (" + ev.Src + ")"
	case KCwnd, KRecoveryEnter, KRecoveryExit:
		p.cwnd = append(p.cwnd, ScatterMark{t, ev.A, '*'})
	case KActnum, KRetreatProbe:
		p.actnum = append(p.actnum, ScatterMark{t, ev.A, '+'})
	}
}

// Render draws the panels of every event emitted so far.
func (tl *TimelineSink) Render() string {
	flow, width, height := tl.flow, tl.width, tl.height
	phase := map[SpanKind]byte{SpanRecovery: 'r', SpanRetreat: 'r', SpanProbe: 'p'}
	var b strings.Builder
	for _, p := range tl.panels {
		marks := append(p.cwnd, p.actnum...)
		if len(marks) == 0 {
			continue
		}
		grid, minT, maxT, _, maxV := Scatter(marks, width, height, true)
		strip := []byte(strings.Repeat(".", width))
		// Sub-phases open after their episode, so they overdraw it.
		tl.spans.records(func(sp *spanRec) {
			if ch := phase[sp.kind]; ch != 0 && int(sp.seg) == p.seg && sp.flow == flow {
				for x := range strip {
					t := minT + (maxT-minT)*float64(x)/float64(width-1)
					if t >= sp.begin.Seconds() && (t < sp.end.Seconds() || sp.open) {
						strip[x] = ch
					}
				}
			}
		})
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "seg %d flow %d%s  cwnd(*)/actnum(+) 0..%.1f pkts  %.3fs..%.3fs\n",
			p.seg, flow, p.label, maxV, minT, maxT)
		for _, row := range grid {
			b.Write(row)
			b.WriteByte('\n')
		}
		b.Write(strip)
		b.WriteString("\nphase: r=recovery (rr: retreat) p=probe .=open\n")
	}
	if b.Len() == 0 {
		return fmt.Sprintf("flow %d: no cwnd/actnum samples\n", flow)
	}
	return b.String()
}
