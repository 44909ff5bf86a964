package trace

import (
	"strings"
	"testing"
	"time"

	"rrtcp/internal/telemetry"
)

const csvHeader = "time_s,event,seq,value\n"

func TestWriteCSVNilReceiver(t *testing.T) {
	var tr *FlowTrace
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatalf("nil receiver: %v", err)
	}
	if b.String() != csvHeader {
		t.Fatalf("nil receiver output %q, want header only", b.String())
	}
}

func TestWriteCSVEmptyTrace(t *testing.T) {
	tr := newRecorded(0, "rr")
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatalf("empty trace: %v", err)
	}
	if b.String() != csvHeader {
		t.Fatalf("empty trace output %q, want header only", b.String())
	}
}

func TestWriteCSVRows(t *testing.T) {
	tr := newRecorded(0, "rr")
	tr.Add(time.Second, EvSend, 1000, 0)
	tr.Add(2*time.Second, EvCwnd, 2000, 8.5)
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3:\n%s", len(lines), b.String())
	}
	if lines[0] != strings.TrimSuffix(csvHeader, "\n") {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1.000000,send,1000,0.000" {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != "2.000000,cwnd,2000,8.500" {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

// The event column is the stream's vocabulary: what a row is called in
// the CSV is what the same event is called in an NDJSON log, and the
// value column carries the event's first attribute as the log does.
func TestWriteCSVUsesStreamVocabulary(t *testing.T) {
	tr := newRecorded(0, "rr")
	tr.OnEvent(telemetry.Event{At: 2 * time.Second, Kind: telemetry.KRecoveryEnter, Seq: 2000, A: 13, B: 6.5})
	tr.OnEvent(telemetry.Event{At: 3 * time.Second, Kind: telemetry.KRetreatProbe, Seq: 2500, A: 4})
	tr.OnEvent(telemetry.Event{At: 4 * time.Second, Kind: telemetry.KFurtherLoss, Seq: 3000, A: 4, B: 1})
	tr.OnEvent(telemetry.Event{At: 5 * time.Second, Kind: telemetry.KRecoveryExit, Seq: 4000, A: 5})
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := csvHeader +
		"2.000000,recovery-enter,2000,13.000\n" +
		"3.000000,retreat-probe,2500,4.000\n" +
		"4.000000,further-loss,3000,4.000\n" + // actnum, not actnum − ndup
		"5.000000,recovery-exit,4000,5.000\n"
	if b.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestOnEventMapsTelemetryKinds(t *testing.T) {
	tr := newRecorded(0, "rr")
	tr.OnEvent(telemetry.Event{At: time.Second, Kind: telemetry.KCwnd, Seq: 1000, A: 7})
	tr.OnEvent(telemetry.Event{At: 2 * time.Second, Kind: telemetry.KRecoveryEnter, Seq: 2000, A: 13, B: 6.5})
	tr.OnEvent(telemetry.Event{At: 3 * time.Second, Kind: telemetry.KFurtherLoss, Seq: 3000, A: 4, B: 1})
	tr.OnEvent(telemetry.Event{At: 4 * time.Second, Kind: telemetry.KRecoveryExit, Seq: 4000, A: 5})

	checks := []struct {
		kind  EventKind
		value float64
	}{
		{EvCwnd, 7},
		{EvRecovery, 13},
		{EvFurther, 4}, // actnum, as the NDJSON line carries it
		{EvExit, 5},
	}
	for _, c := range checks {
		ss := tr.SamplesOf(c.kind)
		if len(ss) != 1 {
			t.Fatalf("%v samples = %d, want 1", c.kind, len(ss))
		}
		if ss[0].A != c.value {
			t.Fatalf("%v value = %v, want %v", c.kind, ss[0].A, c.value)
		}
	}
	// Everything else on the stream — per-RTT actnum updates, flow
	// lifecycle, substrate and harness kinds — is not part of a trace.
	for k := telemetry.Kind(0); k < 64; k++ {
		if recorded>>k&1 == 0 {
			tr.OnEvent(telemetry.Event{At: 5 * time.Second, Kind: k, A: 4})
		}
	}
	if n := len(tr.Samples()); n != 4 {
		t.Fatalf("samples = %d, want 4 (only the twelve trace kinds add one)", n)
	}
}

// The trace's kinds are the stream's kinds: every alias names a kind of
// the NDJSON vocabulary, and they are twelve distinct ones.
func TestKindAliasesRoundTripThroughTheVocabulary(t *testing.T) {
	aliases := []EventKind{EvSend, EvRetransmit, EvAckRecv, EvDeliver, EvTimeout, EvRecovery,
		EvExit, EvCwnd, EvDupAck, EvFlowDone, EvFurther, EvPhaseFlip}
	var seen uint64
	for _, k := range aliases {
		if got := telemetry.ParseKind(k.String()); got != k || k.String() == "?" {
			t.Fatalf("kind %d prints %q, which parses to %d", k, k, got)
		}
		seen |= 1 << k
	}
	if seen != recorded {
		t.Fatalf("aliases cover %b, OnEvent records %b", seen, recorded)
	}
}

func TestRenderASCIIExact(t *testing.T) {
	got := RenderASCII([]Point{{0, 0}, {1, 5}, {2, 10}, {2, 0}, {0.5, 7.5}}, 9, 4)
	want := "y: 0.0..10.0  x: 0.00s..2.00s\n        *\n  *      \n    *    \n*       *\n"
	if got != want {
		t.Fatalf("got %q\nwant %q", got, want)
	}
	// All points on one spot: both axes widen by one.
	got = RenderASCII([]Point{{3, 4}, {3, 4}}, 4, 3)
	want = "y: 4.0..5.0  x: 3.00s..4.00s\n    \n    \n*   \n"
	if got != want {
		t.Fatalf("got %q\nwant %q", got, want)
	}
}

func TestOnEventWithinAChunkDoesNotAllocate(t *testing.T) {
	tr := newRecorded(0, "rr")
	ev := telemetry.Event{Comp: telemetry.CompSender, Kind: telemetry.KAck}
	emit := func() {
		ev.At += time.Millisecond
		ev.Seq += 1000
		tr.OnEvent(ev)
		tr.OnEvent(telemetry.Event{At: ev.At, Comp: telemetry.CompRR, Kind: telemetry.KActnum, A: 4}) // not recorded
	}
	for i := 0; i < 8128+1; i++ { // past the ramp, one record into a 4096-chunk
		emit()
	}
	if avg := testing.AllocsPerRun(4000, emit); avg != 0 {
		t.Fatalf("FlowTrace.OnEvent allocates %.2f times per event inside a chunk, want 0", avg)
	}
}
