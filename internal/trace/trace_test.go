package trace

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *FlowTrace
	tr.Add(0, EvSend, 0, 0) // must not panic
	tr.SetStart(0)
	if tr.Samples() != nil {
		t.Fatal("nil trace returned samples")
	}
	if tr.LossRate() != 0 {
		t.Fatal("nil trace loss rate")
	}
	if tr.GoodputBps(0, time.Second) != 0 {
		t.Fatal("nil trace goodput")
	}
	if _, ok := tr.TransferDelay(); ok {
		t.Fatal("nil trace finished")
	}
}

func TestCounters(t *testing.T) {
	tr := New(1, "test")
	tr.Add(0, EvSend, 0, 0)
	tr.Add(1, EvSend, 1000, 0)
	tr.Add(2, EvRetransmit, 0, 0)
	tr.Add(3, EvTimeout, 0, 0)
	tr.Add(4, EvRecovery, 0, 0)
	tr.Add(5, EvDupAck, 0, 0)
	if tr.DataSent != 2 || tr.Retransmits != 1 || tr.Timeouts != 1 ||
		tr.Recoveries != 1 || tr.DupAcks != 1 {
		t.Fatalf("counters wrong: %+v", tr)
	}
}

func TestLossRate(t *testing.T) {
	tr := New(1, "test")
	for i := 0; i < 9; i++ {
		tr.Add(0, EvSend, int64(i)*1000, 0)
	}
	tr.Add(0, EvRetransmit, 0, 0)
	if got := tr.LossRate(); got != 0.1 {
		t.Fatalf("loss rate = %v, want 0.1", got)
	}
}

func TestLossRateEmpty(t *testing.T) {
	if New(0, "x").LossRate() != 0 {
		t.Fatal("empty trace loss rate nonzero")
	}
}

func TestTransferDelay(t *testing.T) {
	tr := New(1, "test")
	tr.SetStart(2 * time.Second)
	tr.Add(5*time.Second, EvFlowDone, 100, 0)
	delay, ok := tr.TransferDelay()
	if !ok || delay != 3*time.Second {
		t.Fatalf("delay = %v, %v; want 3s", delay, ok)
	}
	done, at := tr.Finished()
	if !done || at != 5*time.Second {
		t.Fatalf("finished = %v at %v", done, at)
	}
}

func TestGoodputBps(t *testing.T) {
	tr := New(1, "test")
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
	tr := New(1, "test")
	if tr.GoodputBps(time.Second, time.Second) != 0 {
		t.Fatal("zero-width window produced goodput")
	}
	if tr.GoodputBps(2*time.Second, time.Second) != 0 {
		t.Fatal("inverted window produced goodput")
	}
}

func TestSamplesOfFiltersKind(t *testing.T) {
	tr := New(1, "test")
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
	tr := New(1, "test")
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

// Property: BytesAcked equals the maximum acked sequence ever recorded.
func TestBytesAckedProperty(t *testing.T) {
	f := func(acks []uint32) bool {
		tr := New(1, "t")
		var maxAck int64
		for i, a := range acks {
			seq := int64(a)
			tr.Add(time.Duration(i), EvAckRecv, seq, 0)
			if seq > maxAck {
				maxAck = seq
			}
		}
		return tr.BytesAcked == maxAck
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSV(t *testing.T) {
	tr := New(1, "test")
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
