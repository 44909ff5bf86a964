package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteChromeTrace exports spans and series in the Chrome trace-event
// JSON format, openable directly in Perfetto (ui.perfetto.dev) and
// chrome://tracing. Spans become B/E duration events on one thread
// track per (segment, flow) or (segment, queue); span events become
// instants on the same track; series become counter ("C") events, one
// counter per gauge.
//
// The format requires timestamps in microseconds and, per track,
// properly nested B/E pairs in non-decreasing time order in file order.
// The writer emits each track's span forest depth-first with children
// and instants interleaved by begin time, which yields that ordering by
// construction; segments are laid out on a shared timeline with a
// cumulative offset per segment so republished multi-run streams read
// left-to-right.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const chromePid = 1

// chromeTrackKey identifies one horizontal track in the trace.
type chromeTrackKey struct {
	seg  int
	flow int32
	src  string
}

func (k chromeTrackKey) name() string {
	if k.flow != NoFlow {
		return fmt.Sprintf("seg%d flow%d", k.seg, k.flow)
	}
	return fmt.Sprintf("seg%d queue %s", k.seg, k.src)
}

// WriteChromeTrace writes the trace JSON for the given spans and
// series. Either argument may be empty. Each event is marshalled and
// written as the walk makes it, so the export holds the spans and
// series it renders and no list of events or encoded file. On an error
// (a non-finite value, which encoding/json refuses, or a failed write)
// what was written before it is left as a partial trace.
func WriteChromeTrace(w io.Writer, spans []*Span, series []*Series) error {
	// Per-segment time offsets (µs): segment k starts where segment
	// k−1 ended, plus a 1 ms gap, so the concatenated runs share one
	// monotone timeline.
	segEnd := map[int]float64{}
	maxSeg, samples := 0, 0
	for _, sp := range spans {
		segEnd[sp.Seg] = max(segEnd[sp.Seg], sp.End.Seconds()*1e6)
		maxSeg = max(maxSeg, sp.Seg)
	}
	for _, sr := range series {
		maxSeg = max(maxSeg, sr.Seg)
		if n := len(sr.T); n > 0 {
			segEnd[sr.Seg] = max(segEnd[sr.Seg], sr.T[n-1]*1e6)
		}
		samples += len(sr.T)
	}
	segOff := make([]float64, maxSeg+1)
	for seg := 1; seg <= maxSeg; seg++ {
		segOff[seg] = segOff[seg-1] + segEnd[seg-1] + 1000
	}

	cw := &chromeWriter{bw: bufio.NewWriter(w)}
	cw.bw.WriteString(`{"traceEvents":[`)
	cw.event(chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid,
		Args: map[string]any{"name": "rrtcp"},
	})

	// Group spans into tracks, preserving open order within a track.
	children := make(map[int][]*Span)
	trackRoots := make(map[chromeTrackKey][]*Span)
	var trackOrder []chromeTrackKey
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
			continue
		}
		key := chromeTrackKey{seg: sp.Seg, flow: sp.Flow, src: sp.Src}
		if _, ok := trackRoots[key]; !ok {
			trackOrder = append(trackOrder, key)
		}
		trackRoots[key] = append(trackRoots[key], sp)
	}

	tid := 0
	for _, key := range trackOrder {
		tid++
		cw.event(chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tid,
			Args: map[string]any{"name": key.name()},
		})
		off := segOff[key.seg]
		for _, root := range trackRoots[key] {
			cw.spanTree(root, children, tid, off)
		}
	}

	// Series as counter events; counter names carry the segment, flow,
	// and gauge so Perfetto shows one counter lane per series. All
	// counters share one track (tid 0), so the samples of all series
	// are merged into a single non-decreasing timeline: a stable sort of
	// one (series, sample) index pair per sample, by timestamp, keeps
	// each series' order (already ascending) and breaks ties by series
	// position, which is deterministic.
	type sample struct{ s, i int32 }
	ts := func(p sample) float64 {
		sr := series[p.s]
		return segOff[sr.Seg] + sr.T[p.i]*1e6
	}
	names := make([]string, len(series))
	order := make([]sample, 0, samples)
	for s, sr := range series {
		names[s] = fmt.Sprintf("seg%d %s", sr.Seg, sr.Src)
		if sr.Flow != NoFlow {
			names[s] = fmt.Sprintf("seg%d flow%d %s", sr.Seg, sr.Flow, sr.Src)
		}
		for i := range sr.T {
			order = append(order, sample{int32(s), int32(i)})
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return ts(order[i]) < ts(order[j]) })
	for _, p := range order {
		cw.event(chromeEvent{
			Name: names[p.s], Ph: "C", Pid: chromePid, Ts: ts(p),
			Args: map[string]any{"value": series[p.s].V[p.i]},
		})
	}

	if cw.err != nil {
		return cw.err
	}
	cw.bw.WriteString(`],"displayTimeUnit":"ms"}` + "\n")
	return cw.bw.Flush()
}

// chromeWriter writes trace events one at a time, comma-separated,
// each one json.Marshal's bytes. The first marshalling error sticks and
// stops the writes; a write error sticks in the bufio.Writer, and Flush
// returns it.
type chromeWriter struct {
	bw  *bufio.Writer
	sep string
	err error
}

func (cw *chromeWriter) event(ev chromeEvent) {
	if cw.err != nil {
		return
	}
	var b []byte
	if b, cw.err = json.Marshal(ev); cw.err == nil {
		cw.bw.WriteString(cw.sep)
		cw.bw.Write(b)
		cw.sep = ","
	}
}

// ValidateChromeTrace structurally checks trace JSON produced by
// WriteChromeTrace (or any trace-event file): the top-level object must
// carry a traceEvents array, and per (pid, tid) the duration events
// must appear in non-decreasing time order with properly nested,
// balanced B/E pairs — the conditions under which Perfetto renders the
// file without dropping slices.
func ValidateChromeTrace(data []byte) error {
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return fmt.Errorf("chrometrace: %w", err)
	}
	if tr.TraceEvents == nil {
		return fmt.Errorf("chrometrace: no traceEvents array")
	}
	type track struct{ pid, tid int }
	stacks := map[track][]string{}
	lastTs := map[track]float64{}
	for i, ev := range tr.TraceEvents {
		k := track{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "M":
			continue
		case "B", "E", "i", "C":
			if prev, ok := lastTs[k]; ok && ev.Ts < prev {
				return fmt.Errorf("chrometrace: event %d (%s %q): ts %g regresses below %g on pid=%d tid=%d",
					i, ev.Ph, ev.Name, ev.Ts, prev, ev.Pid, ev.Tid)
			}
			lastTs[k] = ev.Ts
		default:
			return fmt.Errorf("chrometrace: event %d: unknown phase %q", i, ev.Ph)
		}
		switch ev.Ph {
		case "B":
			stacks[k] = append(stacks[k], ev.Name)
		case "E":
			st := stacks[k]
			if len(st) == 0 {
				return fmt.Errorf("chrometrace: event %d: E %q with no open B on pid=%d tid=%d", i, ev.Name, ev.Pid, ev.Tid)
			}
			if top := st[len(st)-1]; ev.Name != "" && top != ev.Name {
				return fmt.Errorf("chrometrace: event %d: E %q closes B %q", i, ev.Name, top)
			}
			stacks[k] = st[:len(st)-1]
		}
	}
	for k, st := range stacks {
		if len(st) > 0 {
			return fmt.Errorf("chrometrace: %d unclosed B event(s) on pid=%d tid=%d", len(st), k.pid, k.tid)
		}
	}
	return nil
}

// spanTree writes one span subtree: B, then children and instant
// events interleaved by time, then E. Child intervals are clamped to
// the parent's so the B/E pairs nest even if a child out-lived its
// parent (an open child at segment roll).
func (cw *chromeWriter) spanTree(sp *Span, children map[int][]*Span, tid int, off float64) {
	begin := off + sp.Begin.Seconds()*1e6
	end := max(begin, off+sp.End.Seconds()*1e6)
	args := make(map[string]any, len(sp.Attrs)+1)
	for k, v := range sp.Attrs {
		args[k] = v
	}
	if sp.Open {
		args["open"] = true
	}
	if len(args) == 0 {
		args = nil
	}
	cw.event(chromeEvent{
		Name: sp.Kind.String(), Ph: "B", Ts: begin, Pid: chromePid, Tid: tid, Args: args,
	})

	// Merge children and instants into one time-ordered sequence.
	type item struct {
		at    float64
		child *Span
		inst  *SpanEvent
	}
	items := make([]item, 0, len(children[sp.ID])+len(sp.Events))
	for _, c := range children[sp.ID] {
		items = append(items, item{at: off + c.Begin.Seconds()*1e6, child: c})
	}
	for i := range sp.Events {
		items = append(items, item{at: off + sp.Events[i].At.Seconds()*1e6, inst: &sp.Events[i]})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].at < items[j].at })

	for _, it := range items {
		if it.child != nil {
			sub := *it.child
			if b := off + sub.Begin.Seconds()*1e6; b < begin {
				sub.Begin = sp.Begin
			}
			if e := off + sub.End.Seconds()*1e6; e > end {
				sub.End = sp.End
			}
			cw.spanTree(&sub, children, tid, off)
			continue
		}
		cw.event(chromeEvent{
			Name: it.inst.Name, Ph: "i", Ts: min(max(it.at, begin), end), Pid: chromePid, Tid: tid, S: "t",
			Args: map[string]any{"a": it.inst.A, "b": it.inst.B},
		})
	}

	cw.event(chromeEvent{
		Name: sp.Kind.String(), Ph: "E", Ts: end, Pid: chromePid, Tid: tid,
	})
}
