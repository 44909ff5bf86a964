// Package trace records per-flow time series — the sequence-number
// traces behind the paper's Figure 6 plots — and reads them: a goodput
// over a window, a CSV export. The per-connection scalars the paper
// reports (transfer delay, packet-loss rate) are counted by the flow's
// sender.
package trace

import (
	"fmt"
	"strings"

	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// EventKind classifies a trace sample: it is the telemetry stream's
// kind, under the names this package has always used for the twelve
// kinds a trace records.
type EventKind = telemetry.Kind

// Trace sample kinds.
const (
	EvSend       = telemetry.KSend          // data segment transmitted (first time)
	EvRetransmit = telemetry.KRetransmit    // data segment retransmitted
	EvAckRecv    = telemetry.KAck           // ACK processed at the sender
	EvDeliver    = telemetry.KDeliver       // in-order data delivered to the receiving app
	EvTimeout    = telemetry.KTimeout       // retransmission timer expired
	EvRecovery   = telemetry.KRecoveryEnter // sender entered loss recovery (fast retransmit)
	EvExit       = telemetry.KRecoveryExit  // sender left loss recovery
	EvCwnd       = telemetry.KCwnd          // congestion window sample
	EvDupAck     = telemetry.KDupAck        // duplicate ACK processed
	EvFlowDone   = telemetry.KFlowDone      // application transfer completed
	EvFurther    = telemetry.KFurtherLoss   // RR detected a further loss inside recovery
	EvPhaseFlip  = telemetry.KRetreatProbe  // RR retreat→probe transition
)

// recorded is the set of kinds OnEvent keeps, as a bit per kind; the
// rest of the stream (actnum updates, substrate events) is not part of
// a flow's sample series.
const recorded uint64 = 1<<EvSend | 1<<EvRetransmit | 1<<EvAckRecv | 1<<EvDeliver | 1<<EvTimeout | 1<<EvRecovery |
	1<<EvExit | 1<<EvCwnd | 1<<EvDupAck | 1<<EvFlowDone | 1<<EvFurther | 1<<EvPhaseFlip

// FlowTrace is one TCP connection's sample log: the events behind a
// sequence plot, a goodput over a window or a CSV export. It keeps
// nothing unless Record was called before the run; a flow's counts
// (retransmits, timeouts, ACKs, transfer delay, loss rate) are its
// sender's, not the trace's. A nil *FlowTrace is valid and records
// nothing, so endpoints can trace unconditionally.
type FlowTrace struct {
	Flow      int32 // the flow's ID, as its telemetry events carry it
	recording bool
	Name      string
	log       *telemetry.Ring // made by the first Record; kept by Reset
}

// New returns an empty trace for the flow; it records nothing until
// Record.
func New(flow int, name string) *FlowTrace {
	t := new(FlowTrace)
	t.Reset(flow, name)
	return t
}

// Reset makes t the trace New(flow, name) returns, in t's own memory:
// empty and not recording. A sample log it recorded before keeps its
// storage for the next Record. Samples read from it before are copies
// and stay valid.
func (t *FlowTrace) Reset(flow int, name string) {
	if t.log != nil {
		t.log.Reset()
	}
	*t = FlowTrace{Flow: int32(flow), Name: name, log: t.log}
}

// Record makes the trace keep a sample log from here on. Call it before
// the run on the flows whose samples will be read: a sequence plot, a
// goodput over a window, a CSV export.
func (t *FlowTrace) Record() {
	if t == nil {
		return
	}
	if t.log == nil {
		t.log = telemetry.NewRing(0)
	}
	t.recording = true
}

// Recording reports whether the trace keeps a sample log; it is false
// for a nil trace. The endpoints build no event for a trace that is not
// recording.
func (t *FlowTrace) Recording() bool { return t != nil && t.recording }

// OnEvent logs the event if the trace is recording and its kind is one
// a trace keeps.
func (t *FlowTrace) OnEvent(ev telemetry.Event) {
	if t.Recording() && recorded>>ev.Kind&1 != 0 {
		t.log.Emit(ev)
	}
}

// samples returns the sample log. Asking a trace that never recorded
// for its samples is a bug in the caller — an empty answer would read as
// "nothing happened" — so it panics.
func (t *FlowTrace) samples() *telemetry.Ring {
	if !t.recording {
		panic(fmt.Sprintf("trace: flow %d (%s) kept no samples: call Record() on the trace before the run", t.Flow, t.Name))
	}
	return t.log
}

// Samples returns a copy of the recorded samples; a sample's A is the
// event's first attribute: cwnd in packets for EvCwnd, EvRecovery and
// EvExit, actnum for EvFurther and EvPhaseFlip.
func (t *FlowTrace) Samples() []telemetry.Event {
	if t == nil {
		return nil
	}
	return t.samples().Events()
}

// SamplesOf returns the samples of one kind, in time order.
func (t *FlowTrace) SamplesOf(kind EventKind) []telemetry.Event {
	if t == nil {
		return nil
	}
	return t.samples().EventsOf(kind)
}

// GoodputBps returns acknowledged application bytes per second over
// [from, to] — the paper's "effective throughput" metric.
func (t *FlowTrace) GoodputBps(from, to sim.Time) float64 {
	if t == nil || to <= from {
		return 0
	}
	var lo, hi int64 = -1, 0
	for _, s := range t.SamplesOf(EvAckRecv) {
		if s.At < from {
			if s.Seq > lo {
				lo = s.Seq
			}
			continue
		}
		if s.At > to {
			break
		}
		if lo < 0 {
			lo = 0
		}
		if s.Seq > hi {
			hi = s.Seq
		}
	}
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		return 0
	}
	return float64(hi-lo) * 8 / (to - from).Seconds()
}

// SeqSeries returns (time, packet-number) points for send and
// retransmit events — the standard TCP sequence plot of Figure 6 —
// with sequence numbers scaled to packets of the given size.
func (t *FlowTrace) SeqSeries(packetSize int64) []Point {
	if packetSize <= 0 {
		return nil
	}
	var pts []Point
	for _, s := range t.Samples() {
		if s.Kind == EvSend || s.Kind == EvRetransmit {
			pts = append(pts, Point{X: s.At.Seconds(), Y: float64(s.Seq) / float64(packetSize)})
		}
	}
	return pts
}

// Point is an (x, y) pair for plotted series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// RenderASCII draws a crude scatter plot of the points — enough to eyeball
// the Figure 6 shapes in a terminal. Width and height are in cells.
func RenderASCII(pts []Point, width, height int) string {
	if len(pts) == 0 || width < 2 || height < 2 {
		return "(no data)\n"
	}
	marks := make([]telemetry.ScatterMark, len(pts))
	for i, p := range pts {
		marks[i] = telemetry.ScatterMark{X: p.X, Y: p.Y, Ch: '*'}
	}
	grid, minX, maxX, minY, maxY := telemetry.Scatter(marks, width, height, false)
	var b strings.Builder
	fmt.Fprintf(&b, "y: %.1f..%.1f  x: %.2fs..%.2fs\n", minY, maxY, minX, maxX)
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}
