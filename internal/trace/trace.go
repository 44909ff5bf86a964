// Package trace records per-flow time series — the sequence-number
// traces behind the paper's Figure 6 plots — and computes the summary
// metrics the evaluation reports: effective throughput, transfer delay,
// and packet-loss rate.
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

// Sample is one trace record.
type Sample struct {
	At   sim.Time
	Kind EventKind
	// Seq is the byte sequence number involved (send/rtx/ack/deliver).
	Seq int64
	// Value is the event's first attribute (telemetry.Event.A): cwnd in
	// packets for EvCwnd, EvRecovery and EvExit, actnum for EvFurther
	// and EvPhaseFlip, zero for the kinds that carry none.
	Value float64
}

// FlowTrace accumulates samples and counters for one TCP connection.
// A nil *FlowTrace is valid and records nothing, so endpoints can trace
// unconditionally.
type FlowTrace struct {
	Flow    int
	Name    string
	samples telemetry.Chunked[Sample]

	// Counters.
	DataSent     uint64 // first transmissions
	Retransmits  uint64
	Timeouts     uint64
	Recoveries   uint64
	DupAcks      uint64
	BytesAcked   int64
	DeliveredSeq int64

	startAt  sim.Time
	doneAt   sim.Time
	finished bool
}

// New returns an empty trace for the flow.
func New(flow int, name string) *FlowTrace {
	return &FlowTrace{Flow: flow, Name: name, doneAt: -1}
}

// Add appends a sample and updates counters.
func (t *FlowTrace) Add(at sim.Time, kind EventKind, seq int64, value float64) {
	if t == nil {
		return
	}
	t.samples.Append(Sample{At: at, Kind: kind, Seq: seq, Value: value})
	switch kind {
	case EvSend:
		t.DataSent++
	case EvRetransmit:
		t.Retransmits++
	case EvTimeout:
		t.Timeouts++
	case EvRecovery:
		t.Recoveries++
	case EvDupAck:
		t.DupAcks++
	case EvDeliver:
		if seq > t.DeliveredSeq {
			t.DeliveredSeq = seq
		}
	case EvAckRecv:
		if seq > t.BytesAcked {
			t.BytesAcked = seq
		}
	case EvFlowDone:
		t.finished = true
		t.doneAt = at
	}
}

// Emit implements telemetry.Sink: a FlowTrace is a subscriber of the
// event stream the endpoints publish, not a parallel recording
// mechanism.
func (t *FlowTrace) Emit(ev telemetry.Event) { t.OnEvent(ev) }

var _ telemetry.Sink = (*FlowTrace)(nil)

// OnEvent is the typed form of Emit: it records the event if its kind
// is one a trace keeps. A nil receiver records nothing.
func (t *FlowTrace) OnEvent(ev telemetry.Event) {
	if t != nil && recorded>>ev.Kind&1 != 0 {
		t.Add(ev.At, ev.Kind, ev.Seq, ev.A)
	}
}

// SetStart records when the flow began transmitting.
func (t *FlowTrace) SetStart(at sim.Time) {
	if t == nil {
		return
	}
	t.startAt = at
}

// Samples returns a copy of the recorded samples.
func (t *FlowTrace) Samples() []Sample {
	if t == nil {
		return nil
	}
	return t.samples.AppendTo(make([]Sample, 0, t.samples.Len()))
}

// SamplesOf returns the samples of one kind, in time order.
func (t *FlowTrace) SamplesOf(kind EventKind) []Sample {
	if t == nil {
		return nil
	}
	var out []Sample
	for _, chunk := range t.samples.Chunks() {
		for i := range chunk {
			if chunk[i].Kind == kind {
				out = append(out, chunk[i])
			}
		}
	}
	return out
}

// Count returns how many samples of one kind were recorded, reading the
// store in place.
func (t *FlowTrace) Count(kind EventKind) int {
	if t == nil {
		return 0
	}
	n := 0
	for _, chunk := range t.samples.Chunks() {
		for i := range chunk {
			if chunk[i].Kind == kind {
				n++
			}
		}
	}
	return n
}

// Finished reports whether the flow's transfer completed, and when.
func (t *FlowTrace) Finished() (bool, sim.Time) {
	if t == nil {
		return false, 0
	}
	return t.finished, t.doneAt
}

// TransferDelay is the elapsed time from flow start to completion; it
// returns false if the flow never finished.
func (t *FlowTrace) TransferDelay() (sim.Time, bool) {
	if t == nil || !t.finished {
		return 0, false
	}
	return t.doneAt - t.startAt, true
}

// LossRate is the fraction of data transmissions (including
// retransmissions) that had to be retransmitted — the "packet loss
// rate" metric of the paper's Table 5.
func (t *FlowTrace) LossRate() float64 {
	if t == nil {
		return 0
	}
	total := t.DataSent + t.Retransmits
	if total == 0 {
		return 0
	}
	return float64(t.Retransmits) / float64(total)
}

// GoodputBps returns acknowledged application bytes per second over
// [from, to] — the paper's "effective throughput" metric.
func (t *FlowTrace) GoodputBps(from, to sim.Time) float64 {
	if t == nil || to <= from {
		return 0
	}
	var lo, hi int64 = -1, 0
scan:
	for _, chunk := range t.samples.Chunks() {
		for i := range chunk {
			s := &chunk[i]
			if s.Kind != EvAckRecv {
				continue
			}
			if s.At < from {
				if s.Seq > lo {
					lo = s.Seq
				}
				continue
			}
			if s.At > to {
				break scan
			}
			if lo < 0 {
				lo = 0
			}
			if s.Seq > hi {
				hi = s.Seq
			}
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
	if t == nil || packetSize <= 0 {
		return nil
	}
	var pts []Point
	for _, chunk := range t.samples.Chunks() {
		for _, s := range chunk {
			if s.Kind == EvSend || s.Kind == EvRetransmit {
				pts = append(pts, Point{X: s.At.Seconds(), Y: float64(s.Seq) / float64(packetSize)})
			}
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
