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

// EventKind classifies a trace sample.
type EventKind int

// Trace sample kinds.
const (
	EvSend EventKind = iota + 1 // data segment transmitted (first time)
	EvRetransmit
	EvAckRecv   // ACK processed at the sender
	EvDeliver   // in-order data delivered to the receiving app
	EvTimeout   // retransmission timer expired
	EvRecovery  // sender entered loss recovery (fast retransmit)
	EvExit      // sender left loss recovery
	EvCwnd      // congestion window sample
	EvDupAck    // duplicate ACK processed
	EvFlowDone  // application transfer completed
	EvFurther   // RR detected a further loss inside recovery
	EvPhaseFlip // RR retreat→probe transition
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvSend:
		return "send"
	case EvRetransmit:
		return "rtx"
	case EvAckRecv:
		return "ack"
	case EvDeliver:
		return "deliver"
	case EvTimeout:
		return "timeout"
	case EvRecovery:
		return "recovery"
	case EvExit:
		return "exit"
	case EvCwnd:
		return "cwnd"
	case EvDupAck:
		return "dupack"
	case EvFlowDone:
		return "done"
	case EvFurther:
		return "further-loss"
	case EvPhaseFlip:
		return "probe"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Sample is one trace record.
type Sample struct {
	At   sim.Time
	Kind EventKind
	// Seq is the byte sequence number involved (send/rtx/ack/deliver).
	Seq int64
	// Value carries kind-specific data (cwnd in packets for EvCwnd).
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

// Emit implements telemetry.Sink, making FlowTrace a subscriber of the
// event bus rather than a parallel recording mechanism: the endpoints
// publish unified telemetry events, and the trace maps the flow-scoped
// ones onto its legacy sample kinds and counters. Events with no trace
// equivalent (actnum updates, substrate events) are ignored, so the
// per-flow sample series keeps its pre-telemetry shape.
func (t *FlowTrace) Emit(ev telemetry.Event) { t.OnEvent(ev) }

var _ telemetry.Sink = (*FlowTrace)(nil)

// OnEvent is the typed form of Emit; a nil receiver records nothing.
func (t *FlowTrace) OnEvent(ev telemetry.Event) {
	if t == nil {
		return
	}
	switch ev.Kind {
	case telemetry.KSend:
		t.Add(ev.At, EvSend, ev.Seq, 0)
	case telemetry.KRetransmit:
		t.Add(ev.At, EvRetransmit, ev.Seq, 0)
	case telemetry.KAck:
		t.Add(ev.At, EvAckRecv, ev.Seq, 0)
	case telemetry.KDupAck:
		t.Add(ev.At, EvDupAck, ev.Seq, 0)
	case telemetry.KTimeout:
		t.Add(ev.At, EvTimeout, ev.Seq, 0)
	case telemetry.KCwnd:
		t.Add(ev.At, EvCwnd, ev.Seq, ev.A)
	case telemetry.KFlowDone:
		t.Add(ev.At, EvFlowDone, ev.Seq, 0)
	case telemetry.KDeliver:
		t.Add(ev.At, EvDeliver, ev.Seq, 0)
	case telemetry.KRecoveryEnter:
		t.Add(ev.At, EvRecovery, ev.Seq, ev.A)
	case telemetry.KRecoveryExit:
		t.Add(ev.At, EvExit, ev.Seq, ev.A)
	case telemetry.KFurtherLoss:
		t.Add(ev.At, EvFurther, ev.Seq, ev.A-ev.B)
	case telemetry.KRetreatProbe:
		t.Add(ev.At, EvPhaseFlip, ev.Seq, ev.A)
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
	minX, maxX := pts[0].X, pts[0].X
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range pts {
		x := int((p.X - minX) / (maxX - minX) * float64(width-1))
		y := int((p.Y - minY) / (maxY - minY) * float64(height-1))
		grid[height-1-y][x] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "y: %.1f..%.1f  x: %.2fs..%.2fs\n", minY, maxY, minX, maxX)
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}
