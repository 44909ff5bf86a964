package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// flatTrace is the reference the readers of the recorded log are checked
// against: the same samples in one plain slice, read the obvious way.
type flatTrace []telemetry.Event

func (f flatTrace) samplesOf(kind EventKind) []telemetry.Event {
	var out []telemetry.Event
	for _, s := range f {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

func (f flatTrace) goodputBps(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	var lo, hi int64 = -1, 0
	for _, s := range f {
		if s.Kind != EvAckRecv {
			continue
		}
		if s.At < from {
			lo = max(lo, s.Seq)
			continue
		}
		if s.At > to {
			break
		}
		lo = max(lo, 0)
		hi = max(hi, s.Seq)
	}
	lo = max(lo, 0)
	if hi < lo {
		return 0
	}
	return float64(hi-lo) * 8 / (to - from).Seconds()
}

func (f flatTrace) seqSeries(packetSize int64) []Point {
	var pts []Point
	for _, s := range f {
		if s.Kind == EvSend || s.Kind == EvRetransmit {
			pts = append(pts, Point{X: s.At.Seconds(), Y: float64(s.Seq) / float64(packetSize)})
		}
	}
	return pts
}

func (f flatTrace) csv() string {
	var b bytes.Buffer
	b.WriteString(csvHeader)
	for _, s := range f {
		fmt.Fprintf(&b, "%s,%s,%d,%s\n", strconv.FormatFloat(s.At.Seconds(), 'f', 6, 64),
			s.Kind, s.Seq, strconv.FormatFloat(s.A, 'f', 3, 64))
	}
	return b.String()
}

// randomTrace records n samples of a plausible flow — time and the ACK
// point only move forward — into a FlowTrace and a flat reference.
func randomTrace(rng *rand.Rand, n int) (*FlowTrace, flatTrace) {
	tr := newRecorded(0, "rr")
	flat := make(flatTrace, 0, n)
	var at sim.Time
	var sent, acked int64
	for i := 0; i < n; i++ {
		at += sim.Time(rng.Int63n(int64(3 * time.Millisecond)))
		s := telemetry.Event{At: at, Kind: EventKind(1 + rng.Intn(int(EvPhaseFlip))), A: float64(rng.Intn(40)) / 3}
		switch s.Kind {
		case EvSend:
			sent += 1000
			s.Seq = sent
		case EvRetransmit:
			s.Seq = acked + 1000*rng.Int63n(4)
		case EvAckRecv:
			acked = min(sent, acked+1000*rng.Int63n(3))
			s.Seq = acked
		case EvFlowDone: // ends a trace; keep these ones running
			s.Kind = EvCwnd
		}
		tr.OnEvent(s)
		flat = append(flat, s)
	}
	return tr, flat
}

// Every FlowTrace reader answers from the recorded log; on traces of
// every interesting size — empty, inside one chunk, on and around chunk
// boundaries, deep into 4096-chunks — each must return exactly what the
// flat reference does.
func TestReadersMatchFlatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 63, 64, 65, 192, 193, 8128, 8129, 8128 + 4096 + 7, 30_000} {
		tr, flat := randomTrace(rng, n)
		if !slices.Equal(tr.Samples(), []telemetry.Event(flat)) {
			t.Fatalf("n=%d: Samples() differs from what was added", n)
		}
		if n > 0 {
			tr.Samples()[0].Seq = -1
			if tr.Samples()[0] != flat[0] {
				t.Fatalf("n=%d: Samples() aliases the log instead of copying", n)
			}
		}
		for kind := EvSend; kind <= EvPhaseFlip; kind++ {
			if !slices.Equal(tr.SamplesOf(kind), flat.samplesOf(kind)) {
				t.Fatalf("n=%d: SamplesOf(%v) differs from the flat reference", n, kind)
			}
		}
		end := sim.Time(0)
		if n > 0 {
			end = flat[n-1].At
		}
		windows := [][2]sim.Time{{0, end}, {0, end + time.Second}, {end / 3, end / 2}, {end / 2, end / 3}, {end, end}, {end + 1, end + 2}}
		for i := 0; i < 40; i++ { // random windows, most with an edge inside some chunk
			a, b := sim.Time(rng.Int63n(int64(end)+1)), sim.Time(rng.Int63n(int64(end)+1))
			windows = append(windows, [2]sim.Time{min(a, b), max(a, b)})
		}
		for _, w := range windows {
			if got, want := tr.GoodputBps(w[0], w[1]), flat.goodputBps(w[0], w[1]); got != want {
				t.Fatalf("n=%d: GoodputBps(%v, %v) = %v, flat reference %v", n, w[0], w[1], got, want)
			}
		}
		if !slices.Equal(tr.SeqSeries(1000), flat.seqSeries(1000)) {
			t.Fatalf("n=%d: SeqSeries differs from the flat reference", n)
		}
		var csv bytes.Buffer
		if err := tr.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if csv.String() != flat.csv() {
			t.Fatalf("n=%d: WriteCSV differs from the flat reference", n)
		}
	}
}

func TestAddWithinAChunkDoesNotAllocate(t *testing.T) {
	tr := newRecorded(0, "rr")
	at := sim.Time(0)
	add := func() {
		at += time.Millisecond
		tr.Add(at, EvAckRecv, int64(at), 0)
	}
	for i := 0; i < 8128+1; i++ { // past the ramp, one record into a 4096-chunk
		add()
	}
	if avg := testing.AllocsPerRun(4000, add); avg != 0 {
		t.Fatalf("FlowTrace.Add allocates %.2f times per sample inside a chunk, want 0", avg)
	}
}
