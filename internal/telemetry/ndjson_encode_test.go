package telemetry

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"rrtcp/internal/sim"
)

// simTimeEdges are the timestamps where an integer formatter and
// strconv's 'f'/9 float formatter are most likely to part ways: zero,
// the carry into and out of the fraction, large second counts, the
// fallback boundary on both sides, and a negative instant.
var simTimeEdges = []sim.Time{
	0, 1, 9, 10, 999_999_999, 1e9, 1e9 + 1, 1e12 - 1, 1e12, 1e12 + 1,
	123_456_789_012_345, 1e15 - 1, 1e15, 1e15 + 1, math.MaxInt64, -1, -1e9, math.MinInt64,
}

func checkSimTime(t *testing.T, at sim.Time) {
	t.Helper()
	want := strconv.AppendFloat(nil, at.Seconds(), 'f', 9, 64)
	if got := appendSimTime(nil, at); !bytes.Equal(got, want) {
		t.Fatalf("appendSimTime(%d ns) = %s, AppendFloat writes %s", int64(at), got, want)
	}
	// The encoder overwrites a reused buffer's tail: stale digits from a
	// longer, earlier timestamp must not show through.
	reused := appendSimTime([]byte(`{"t":987654321.123456789`)[:5], at)
	if !bytes.Equal(reused[5:], want) {
		t.Fatalf("appendSimTime(%d ns) into a reused buffer = %s, want %s", int64(at), reused[5:], want)
	}
}

func TestAppendSimTimeMatchesAppendFloat(t *testing.T) {
	for _, at := range simTimeEdges {
		checkSimTime(t, at)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200_000; i++ {
		// Uniform in magnitude, not in value: every digit count of both
		// the second and the nanosecond part gets exercised.
		at := sim.Time(rng.Int63() >> uint(rng.Intn(63)))
		if i%16 == 0 {
			at = -at
		}
		checkSimTime(t, at)
	}
}

func FuzzAppendSimTime(f *testing.F) {
	for _, at := range simTimeEdges {
		f.Add(int64(at))
	}
	f.Fuzz(func(t *testing.T, ns int64) { checkSimTime(t, sim.Time(ns)) })
}

// referenceLine is the NDJSON encoding spelled the slow, obvious way —
// float timestamp, Stringer names, attrNames — which the sink's output
// must match byte for byte.
func referenceLine(ev Event) []byte {
	b := []byte(`{"t":`)
	b = strconv.AppendFloat(b, ev.At.Seconds(), 'f', 9, 64)
	b = append(b, `,"comp":"`+ev.Comp.String()+`","kind":"`+ev.Kind.String()+`"`...)
	if ev.Src != "" {
		b = append(b, `,"src":`...)
		b = appendJSONString(b, ev.Src)
	}
	if ev.Flow != NoFlow {
		b = append(b, `,"flow":`+strconv.FormatInt(int64(ev.Flow), 10)...)
	}
	if ev.Seq != 0 {
		b = append(b, `,"seq":`+strconv.FormatInt(ev.Seq, 10)...)
	}
	aName, bName := ev.Kind.attrNames()
	if aName != "" {
		b = appendJSONFloat(append(b, `,"`+aName+`":`...), ev.A)
	}
	if bName != "" {
		b = appendJSONFloat(append(b, `,"`+bName+`":`...), ev.B)
	}
	return append(b, '}', '\n')
}

// randomEvents draws a stream shaped like a simulation's: runs of
// events sharing an instant, every component and kind including
// out-of-vocabulary values, plain, escaped and oversized src labels,
// integral and fractional attributes.
func randomEvents(rng *rand.Rand, n int) []Event {
	srcs := []string{"", "", "fwd", "rev", "fwd.qlen", `q"uote\`, "tab\there", "ünï", "<html>", strings.Repeat("x", 300), strings.Repeat("\x01", 70_000)}
	floats := []float64{0, 1, -1, 30, 12.083333333333334, 1e21, -2.5e-7, math.MaxFloat64, math.SmallestNonzeroFloat64, float64(math.MaxInt64)}
	evs := make([]Event, n)
	at := sim.Time(0)
	for i := range evs {
		switch rng.Intn(8) {
		case 0:
			at += sim.Time(rng.Int63n(5e9))
		case 1:
			at = simTimeEdges[rng.Intn(len(simTimeEdges))]
		case 2:
			at = sim.Time(rng.Int63n(1e9)) // time regression, as in republished streams
		}
		src := srcs[rng.Intn(len(srcs)-1)]
		if rng.Intn(400) == 0 {
			src = srcs[len(srcs)-1] // longer than the sink's whole buffer
		}
		evs[i] = Event{
			At:   at,
			Comp: Component(rng.Intn(int(compSentinel) + 2)),
			Kind: Kind(rng.Intn(int(kindSentinel) + 2)),
			Src:  src,
			Flow: int32(rng.Intn(12)) - 1,
			Seq:  rng.Int63n(3) * rng.Int63(),
			A:    floats[rng.Intn(len(floats))],
			B:    floats[rng.Intn(len(floats))],
		}
		if rng.Intn(50) == 0 {
			evs[i].Comp, evs[i].Kind, evs[i].Flow = 255, 255, math.MinInt32
		}
	}
	return evs
}

func TestNDJSONSinkMatchesReferenceEncoding(t *testing.T) {
	evs := randomEvents(rand.New(rand.NewSource(7)), 30_000)
	var got, want bytes.Buffer
	sink := NewNDJSONSink(&got)
	for _, ev := range evs {
		sink.Emit(ev)
		want.Write(referenceLine(ev))
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := bytes.SplitAfter(got.Bytes(), []byte("\n")), bytes.SplitAfter(want.Bytes(), []byte("\n"))
		for i := range w {
			if i >= len(g) || !bytes.Equal(g[i], w[i]) {
				t.Fatalf("line %d differs\n got: %.300s\nwant: %.300s", i+1, g[min(i, len(g)-1)], w[i])
			}
		}
		t.Fatalf("sink wrote %d lines, reference %d", len(g), len(w))
	}
}

func TestNDJSONSinkEmitDoesNotAllocate(t *testing.T) {
	sink := NewNDJSONSink(io.Discard)
	evs := []Event{
		{At: 1_234_567_890, Comp: CompSender, Kind: KAck, Flow: 3, Seq: 61000},
		{At: 1_234_567_890, Comp: CompSender, Kind: KCwnd, Flow: 3, A: 12.083333333333334},
		{At: 1_234_567_891, Comp: CompQueue, Kind: KEnqueue, Src: "fwd", Flow: NoFlow, A: 7},
		{At: 2_000_000_000, Comp: CompRR, Kind: KActnum, Flow: 3, Seq: 62000, A: 4, B: 3},
		{At: 2_000_000_000, Comp: CompLink, Kind: KLinkTx, Src: "fwd", Flow: NoFlow, A: 1000},
	}
	i := 0
	// Far more lines than the 64 KiB buffer holds, so flushes are counted too.
	if avg := testing.AllocsPerRun(20_000, func() {
		sink.Emit(evs[i%len(evs)])
		i++
	}); avg != 0 {
		t.Fatalf("NDJSONSink.Emit allocates %.3f times per event, want 0", avg)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

type failAfter struct{ left int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.left -= len(p); w.left < 0 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

// A failing writer must surface through Err/Flush/Close and stop the
// sink, whether the failure hits the make-room flush or the final one.
func TestNDJSONSinkWriteErrorSticks(t *testing.T) {
	sink := NewNDJSONSink(&failAfter{left: 100_000})
	for i := 0; i < 5000; i++ { // ~80 bytes a line: overruns the budget mid-stream
		sink.Emit(Event{At: sim.Time(i), Comp: CompQueue, Kind: KDrop, Src: "fwd", Flow: NoFlow, A: 9, B: 1})
	}
	if sink.Err() == nil {
		t.Fatal("write failure during Emit not recorded")
	}
	if sink.Flush() == nil || sink.Close() == nil {
		t.Fatal("Flush/Close hide the recorded write failure")
	}
}
