package trace

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// Add feeds the trace one event the way the tests have always written
// them: kind, sequence number and first attribute.
func (t *FlowTrace) Add(at sim.Time, kind EventKind, seq int64, value float64) {
	t.OnEvent(telemetry.Event{At: at, Kind: kind, Seq: seq, A: value})
}

// newRecorded returns a trace that keeps its sample log.
func newRecorded(flow int, name string) *FlowTrace {
	tr := New(flow, name)
	tr.Record()
	return tr
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *FlowTrace
	tr.Add(0, EvSend, 0, 0) // must not panic
	tr.Record()
	if tr.Recording() {
		t.Fatal("nil trace records")
	}
	if tr.Samples() != nil || tr.SamplesOf(EvSend) != nil || tr.SeqSeries(1000) != nil {
		t.Fatal("nil trace returned samples")
	}
	if tr.GoodputBps(0, time.Second) != 0 {
		t.Fatal("nil trace goodput")
	}
}

func TestGoodputBps(t *testing.T) {
	tr := newRecorded(1, "test")
	// Acks: 10 KB acked at t=1s, 20 KB at t=2s.
	tr.Add(time.Second, EvAckRecv, 10_000, 0)
	tr.Add(2*time.Second, EvAckRecv, 20_000, 0)
	// Over [0, 2s]: 20 KB → 80 Kbps.
	if got := tr.GoodputBps(0, 2*time.Second); got != 80_000 {
		t.Fatalf("goodput = %v, want 80000", got)
	}
	// Over [1s, 2s]: only the second 10 KB counts → 80 Kbps too.
	if got := tr.GoodputBps(time.Second+1, 2*time.Second); got < 79_000 || got > 81_000 {
		t.Fatalf("windowed goodput = %v, want ~80000", got)
	}
}

func TestGoodputEmptyWindow(t *testing.T) {
	tr := newRecorded(1, "test")
	if tr.GoodputBps(time.Second, time.Second) != 0 {
		t.Fatal("zero-width window produced goodput")
	}
	if tr.GoodputBps(2*time.Second, time.Second) != 0 {
		t.Fatal("inverted window produced goodput")
	}
}

func TestSamplesOfFiltersKind(t *testing.T) {
	tr := newRecorded(1, "test")
	tr.Add(0, EvSend, 0, 0)
	tr.Add(1, EvRetransmit, 1000, 0)
	tr.Add(2, EvSend, 2000, 0)
	if got := len(tr.SamplesOf(EvSend)); got != 2 {
		t.Fatalf("%d send samples, want 2", got)
	}
	if got := len(tr.SamplesOf(EvTimeout)); got != 0 {
		t.Fatalf("%d timeout samples, want 0", got)
	}
}

func TestSeqSeries(t *testing.T) {
	tr := newRecorded(1, "test")
	tr.Add(time.Second, EvSend, 5000, 0)
	tr.Add(2*time.Second, EvRetransmit, 5000, 0)
	tr.Add(3*time.Second, EvAckRecv, 6000, 0) // not part of the series
	pts := tr.SeqSeries(1000)
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2", len(pts))
	}
	if pts[0].X != 1 || pts[0].Y != 5 {
		t.Fatalf("point 0 = %+v, want (1, 5)", pts[0])
	}
	if tr.SeqSeries(0) != nil {
		t.Fatal("zero packet size produced points")
	}
}

func TestRenderASCII(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 4}}
	out := RenderASCII(pts, 20, 10)
	if !strings.Contains(out, "*") {
		t.Fatal("no points rendered")
	}
	if RenderASCII(nil, 20, 10) != "(no data)\n" {
		t.Fatal("empty input not handled")
	}
	if RenderASCII(pts, 1, 1) != "(no data)\n" {
		t.Fatal("degenerate grid not handled")
	}
	// Identical points must not divide by zero.
	same := []Point{{X: 1, Y: 1}, {X: 1, Y: 1}}
	if !strings.Contains(RenderASCII(same, 10, 5), "*") {
		t.Fatal("degenerate range not handled")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvSend, EvRetransmit, EvAckRecv, EvDeliver, EvTimeout,
		EvRecovery, EvExit, EvCwnd, EvDupAck, EvFlowDone, EvFurther, EvPhaseFlip}
	seen := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "EventKind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

func TestWriteCSV(t *testing.T) {
	tr := newRecorded(1, "test")
	tr.Add(time.Second, EvSend, 1000, 0)
	tr.Add(2*time.Second, EvCwnd, 1000, 4.5)
	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err != nil {
		t.Fatalf("write: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want header + 2 rows:\n%s", len(lines), sb.String())
	}
	if lines[0] != "time_s,event,seq,value" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1.000000,send,1000,") {
		t.Fatalf("row %q", lines[1])
	}
	if !strings.Contains(lines[2], "cwnd") || !strings.Contains(lines[2], "4.500") {
		t.Fatalf("row %q", lines[2])
	}
}

func TestWriteCSVNil(t *testing.T) {
	var tr *FlowTrace
	if err := tr.WriteCSV(&strings.Builder{}); err != nil {
		t.Fatalf("nil trace: %v", err)
	}
}

// Property: RenderASCII never panics and always contains every point
// marker for arbitrary inputs.
func TestRenderASCIIProperty(t *testing.T) {
	f := func(xs, ys []int16, w, h uint8) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		pts := make([]Point, 0, n)
		for i := 0; i < n; i++ {
			pts = append(pts, Point{X: float64(xs[i]), Y: float64(ys[i])})
		}
		out := RenderASCII(pts, int(w%100), int(h%40))
		if len(pts) == 0 || int(w%100) < 2 || int(h%40) < 2 {
			return out == "(no data)\n"
		}
		return strings.Contains(out, "*")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A trace that was never told to Record keeps nothing: an event handed
// to it allocates nothing, Record switches the log on, and asking an
// unrecorded trace for samples is a bug that must not read as "nothing
// happened".
func TestUnrecordedTraceKeepsNothing(t *testing.T) {
	tr := New(0, "rr")
	at := sim.Time(0)
	add := func() {
		at += time.Millisecond
		tr.Add(at, EvSend, int64(at), 0)
		tr.Add(at, EvAckRecv, int64(at), 0)
	}
	if avg := testing.AllocsPerRun(1000, add); avg != 0 || tr.Recording() {
		t.Fatalf("an unrecorded FlowTrace allocates %.2f times per event pair (recording %t), want 0", avg, tr.Recording())
	}
	tr.Record()
	add()
	if !tr.Recording() || len(tr.Samples()) != 2 {
		t.Fatalf("after Record: recording %t, %d samples, want true and 2", tr.Recording(), len(tr.Samples()))
	}
}

// Reset makes a trace the one New returns: another flow and name, not
// recording, its samples gone — and the storage of a log it recorded
// kept, so recording as much again allocates nothing.
func TestResetTraceIsNew(t *testing.T) {
	tr := New(0, "rr")
	tr.Record()
	fill := func(n int) {
		for i := 0; i < n; i++ {
			tr.Add(sim.Time(i)*time.Millisecond, EvSend, int64(i)*1000, 0)
		}
	}
	fill(500)
	kept := tr.Samples()
	tr.Reset(4, "sack-rev")
	if tr.Flow != 4 || tr.Name != "sack-rev" || tr.Recording() {
		t.Fatalf("after Reset: flow %d, name %q, recording %t; want 4, sack-rev, false", tr.Flow, tr.Name, tr.Recording())
	}
	if avg := testing.AllocsPerRun(1, func() {
		tr.Reset(4, "sack-rev")
		tr.Record()
		fill(300)
	}); avg != 0 {
		t.Fatalf("recording into a reset trace allocates %.0f times, want 0", avg)
	}
	if got := tr.Samples(); len(got) != 300 || got[299].Seq != 299*1000 {
		t.Fatalf("a reset trace reads %d samples, want the 300 recorded since", len(got))
	}
	if len(kept) != 500 || kept[499].Seq != 499*1000 {
		t.Fatal("Reset reached into samples read before it")
	}
}

// A trace is the flow's number, whether it records, its name and a log
// pointer: the holder every flow of a workload.Flow block carries.
func TestFlowTraceIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(FlowTrace{}); n > 32 {
		t.Fatalf("FlowTrace is %d bytes, want at most 32", n)
	}
}

func TestSampleReadersPanicOnUnrecordedTrace(t *testing.T) {
	readers := map[string]func(tr *FlowTrace){
		"Samples":    func(tr *FlowTrace) { tr.Samples() },
		"SamplesOf":  func(tr *FlowTrace) { tr.SamplesOf(EvAckRecv) },
		"SeqSeries":  func(tr *FlowTrace) { tr.SeqSeries(1000) },
		"GoodputBps": func(tr *FlowTrace) { tr.GoodputBps(0, time.Second) },
		"WriteCSV":   func(tr *FlowTrace) { tr.WriteCSV(&strings.Builder{}) }, //nolint:errcheck // panics first
	}
	for name, read := range readers {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Record") {
					t.Fatalf("%s on an unrecorded trace: recovered %q, want a panic naming Record", name, msg)
				}
			}()
			tr := New(3, "rr")
			tr.Add(0, EvAckRecv, 1000, 0)
			read(tr)
		})
	}
}
