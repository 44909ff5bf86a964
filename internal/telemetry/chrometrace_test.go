package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func chromeFixture(t *testing.T) []byte {
	t.Helper()
	spanSink := NewSpanSink()
	seriesSink := NewSeriesSink()
	// One run's events in chronological order: a connection with one RR
	// episode, a queue busy period, and two cwnd samples.
	feed := func(sink Sink) {
		sink.Emit(Event{At: ms(0), Comp: CompSender, Kind: KSend, Flow: 0, Seq: 1000})
		sink.Emit(Event{At: ms(10), Comp: CompQueue, Kind: KEnqueue, Src: "fwd", Flow: NoFlow, A: 1})
		sink.Emit(Event{At: ms(50), Comp: CompSender, Kind: KSample, Src: "cwnd", Flow: 0, A: 12})
		sink.Emit(Event{At: ms(100), Comp: CompRR, Kind: KRecoveryEnter, Flow: 0, A: 16, B: 8})
		sink.Emit(Event{At: ms(150), Comp: CompRR, Kind: KRetreatProbe, Flow: 0, A: 8})
		sink.Emit(Event{At: ms(160), Comp: CompSender, Kind: KSample, Src: "cwnd", Flow: 0, A: 6})
		sink.Emit(Event{At: ms(200), Comp: CompRR, Kind: KActnum, Flow: 0, A: 8, B: 0})
		sink.Emit(Event{At: ms(250), Comp: CompRR, Kind: KActnum, Flow: 0, A: 9, B: 0})
		sink.Emit(Event{At: ms(300), Comp: CompRR, Kind: KRecoveryExit, Flow: 0, A: 9})
		sink.Emit(Event{At: ms(450), Comp: CompLink, Kind: KLinkTx, Src: "fwd", Flow: NoFlow, A: 1000, B: 0})
		sink.Emit(Event{At: ms(500), Comp: CompSender, Kind: KFlowDone, Flow: 0})
	}
	// Feeding twice models the fig5 multi-variant republish: sim time
	// restarts at zero, which rolls the sinks onto a second segment.
	feed(spanSink)
	feed(spanSink)
	feed(seriesSink)
	feed(seriesSink)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spanSink.Spans(), seriesSink.Series()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteChromeTraceValidates(t *testing.T) {
	data := chromeFixture(t)
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatalf("invalid trace: %v\n%s", err, data)
	}
}

func TestChromeTraceContents(t *testing.T) {
	data := chromeFixture(t)
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	var threads []string
	counters := map[string]int{}
	phases := map[string]int{}
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				threads = append(threads, ev.Args["name"].(string))
			}
		case "C":
			counters[ev.Name]++
		case "B":
			phases[ev.Name]++
		}
	}
	for _, want := range []string{"seg0 flow0", "seg0 queue fwd", "seg1 flow0", "seg1 queue fwd"} {
		found := false
		for _, th := range threads {
			if th == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing track %q in %v", want, threads)
		}
	}
	if counters["seg0 flow0 cwnd"] != 2 || counters["seg1 flow0 cwnd"] != 2 {
		t.Fatalf("counter samples = %v", counters)
	}
	// Per segment: conn, recovery, retreat, probe, queue-busy.
	for _, kind := range []string{"conn", "recovery", "retreat", "probe", "queue-busy"} {
		if phases[kind] != 2 {
			t.Fatalf("B events for %q = %d, want 2 (one per segment): %v", kind, phases[kind], phases)
		}
	}
}

func TestChromeTraceSegmentOffsetsMonotone(t *testing.T) {
	data := chromeFixture(t)
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	// Map tids to segments via thread_name metadata, then require every
	// segment-1 timestamp to land beyond segment 0's end (500ms of sim
	// time) on the shared timeline.
	seg1 := map[int]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if name, _ := ev.Args["name"].(string); strings.HasPrefix(name, "seg1 ") {
				seg1[ev.Tid] = true
			}
		}
	}
	if len(seg1) == 0 {
		t.Fatal("no segment-1 tracks found")
	}
	seg0End := (500 * time.Millisecond).Seconds() * 1e6
	for i, ev := range tr.TraceEvents {
		if ev.Ph != "M" && seg1[ev.Tid] && ev.Ts <= seg0End {
			t.Fatalf("event %d on a seg1 track at ts %g, inside segment 0 (< %g)", i, ev.Ts, seg0End)
		}
	}
}

func TestValidateChromeTraceRejectsBadTraces(t *testing.T) {
	cases := map[string]string{
		"not json":      "]",
		"no events key": `{"foo":1}`,
		"unbalanced":    `{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":1,"tid":1}]}`,
		"stray end":     `{"traceEvents":[{"name":"x","ph":"E","ts":1,"pid":1,"tid":1}]}`,
		"regression": `{"traceEvents":[
			{"name":"x","ph":"B","ts":5,"pid":1,"tid":1},
			{"name":"y","ph":"B","ts":3,"pid":1,"tid":1},
			{"name":"y","ph":"E","ts":4,"pid":1,"tid":1},
			{"name":"x","ph":"E","ts":6,"pid":1,"tid":1}]}`,
		"crossed pair": `{"traceEvents":[
			{"name":"x","ph":"B","ts":1,"pid":1,"tid":1},
			{"name":"y","ph":"B","ts":2,"pid":1,"tid":1},
			{"name":"x","ph":"E","ts":3,"pid":1,"tid":1},
			{"name":"y","ph":"E","ts":4,"pid":1,"tid":1}]}`,
	}
	for name, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	ok := `{"traceEvents":[
		{"name":"x","ph":"B","ts":1,"pid":1,"tid":1},
		{"name":"x","ph":"E","ts":2,"pid":1,"tid":1}]}`
	if err := ValidateChromeTrace([]byte(ok)); err != nil {
		t.Errorf("minimal valid trace rejected: %v", err)
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	a := chromeFixture(t)
	b := chromeFixture(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical exports differ byte-wise")
	}
	if !strings.Contains(string(a), `"displayTimeUnit":"ms"`) {
		t.Fatal("missing displayTimeUnit")
	}
}

// heapPeakWriter counts what is written to it and, on every hundredth
// Write (the first included), collects garbage and records the live
// heap.
type heapPeakWriter struct {
	writes, bytes int
	peak          uint64
}

func (w *heapPeakWriter) Write(p []byte) (int, error) {
	if w.writes%100 == 0 {
		w.peak = max(w.peak, liveHeap())
	}
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWriteChromeTraceHoldsNoTrace exports 2 000 spans and 200 000
// samples over four series and requires the live heap, above what the
// inputs hold, to stay under a quarter of the bytes written whenever
// the writer looks: the export writes each event as it makes it and
// keeps no list of events and no encoded file. A counter writes ~85
// bytes; the 8-byte index a sample takes in the counter sort is what
// the bound leaves room for.
func TestWriteChromeTraceHoldsNoTrace(t *testing.T) {
	var spans []*Span
	for i := 0; i < 2000; i++ {
		spans = append(spans, &Span{
			ID: i, Parent: -1, Kind: SpanRecovery, Flow: int32(i % 4),
			Begin: ms(10 * i), End: ms(10*i + 5),
			Attrs:  map[string]float64{"actnum": float64(i % 9)},
			Events: []SpanEvent{{At: ms(10*i + 2), Name: "retreat", A: 8}},
		})
	}
	var series []*Series
	for k := 0; k < 4; k++ {
		sr := &Series{Comp: CompSender, Src: "cwnd", Flow: int32(k)}
		for i := 0; i < 50_000; i++ {
			sr.T = append(sr.T, float64(i)*0.01+float64(k%2)*0.005)
			sr.V = append(sr.V, float64(4+(i+k)%20))
		}
		series = append(series, sr)
	}
	base := liveHeap()
	w := &heapPeakWriter{}
	if err := WriteChromeTrace(w, spans, series); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(spans)
	runtime.KeepAlive(series)
	grew := uint64(0)
	if w.peak > base {
		grew = w.peak - base
	}
	t.Logf("%d writes, %d bytes; live heap grew at most %d bytes", w.writes, w.bytes, grew)
	if grew >= uint64(w.bytes/4) {
		t.Errorf("live heap grew %d bytes while writing %d, want less than a quarter of them", grew, w.bytes)
	}
}

// TestWriteChromeTraceReturnsJSONError: a sample value encoding/json
// refuses is its error, returned as it was by the one-shot encoder the
// writer replaced. What was written before it is a partial trace.
func TestWriteChromeTraceReturnsJSONError(t *testing.T) {
	series := []*Series{{Comp: CompSender, Src: "cwnd", Flow: 0, T: []float64{0, 1}, V: []float64{1, math.NaN()}}}
	err := WriteChromeTrace(io.Discard, nil, series)
	var unsupported *json.UnsupportedValueError
	if _, want := json.Marshal(math.NaN()); !errors.As(err, &unsupported) || err.Error() != want.Error() {
		t.Fatalf("err = %v, want encoding/json's %v", err, want)
	}
}
