package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// --- the resilience event vocabulary ---

func TestResilienceKindsRoundTripNDJSON(t *testing.T) {
	var buf bytes.Buffer
	nd := NewNDJSONSink(&buf)
	nd.Emit(Event{Comp: CompSweep, Kind: KSweepStall, Src: "j3", Flow: NoFlow, Seq: 3, A: 12.5, B: 1})
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"sweep-stall","src":"j3","seq":3,"running_s":12.5,"worker":1}`) {
		t.Fatalf("stall line wrong:\n%s", buf.String())
	}
	// A log written while the sweep engine still retried carries
	// sweep-retry lines: they decode as unknown vocabulary, like any
	// kind this build does not know.
	buf.WriteString(`{"t":0.000000000,"comp":"sweep","kind":"sweep-retry","src":"j3","seq":3,"attempt":2,"backoff_s":0.2}` + "\n")
	evs, stats, err := decodeAll(&buf)
	if err != nil || stats.Skipped != 0 || stats.Unknown != 1 {
		t.Fatalf("decode: err=%v stats=%+v, want the retry line counted unknown", err, stats)
	}
	if len(evs) != 1 || evs[0].Kind != KSweepStall || evs[0].A != 12.5 || evs[0].B != 1 {
		t.Fatalf("stall event wrong: %+v", evs)
	}
	// Its retired slot keeps the later kinds' numbers but has no name:
	// it prints as out-of-vocabulary and nothing parses to it.
	retired := KSweepStall + 1
	if retired.String() != "?" || KOverload != retired+1 {
		t.Fatalf("retired slot %d prints %q; KOverload = %d", retired, retired, KOverload)
	}
	for _, name := range []string{"", "?", "sweep-retry"} {
		if k := ParseKind(name); k != 0 {
			t.Fatalf("ParseKind(%q) = %d, want 0", name, k)
		}
	}
}

// --- /progress materialized view ---

func TestProgressStateTracksStalls(t *testing.T) {
	p := NewProgressState()
	p.Emit(Event{Comp: CompSweep, Kind: KSweepStart, Src: "chaos", Flow: NoFlow, A: 4, B: 2})
	p.Emit(Event{Comp: CompSweep, Kind: KSweepStall, Src: "j1", Flow: NoFlow, Seq: 1, A: 5, B: 0})
	p.Emit(Event{Comp: CompSweep, Kind: KSweepStall, Src: "j2", Flow: NoFlow, Seq: 2, A: 6, B: 1})

	s := p.Snapshot()
	if len(s.Stalled) != 2 || s.Stalled[0].Job != "j1" || s.Stalled[1].Worker != 1 {
		t.Fatalf("stalled list wrong: %+v", s.Stalled)
	}

	// A repeat stall for the same index refreshes rather than duplicates.
	p.Emit(Event{Comp: CompSweep, Kind: KSweepStall, Src: "j1", Flow: NoFlow, Seq: 1, A: 9, B: 0})
	s = p.Snapshot()
	if len(s.Stalled) != 2 || s.Stalled[0].RunningS != 9 {
		t.Fatalf("stall upsert wrong: %+v", s.Stalled)
	}

	// Completion clears the job's stall entry.
	p.Emit(Event{Comp: CompSweep, Kind: KSweepJob, Src: "j2", Flow: NoFlow, Seq: 2, A: 1, B: 4})
	if s = p.Snapshot(); len(s.Stalled) != 1 || s.Stalled[0].Index != 1 {
		t.Fatalf("completed job still listed as stalled: %+v", s.Stalled)
	}

	// Sweep end leaves no stale stall state behind.
	p.Emit(Event{Comp: CompSweep, Kind: KSweepStall, Src: "j3", Flow: NoFlow, Seq: 3, A: 2, B: 0})
	p.Emit(Event{Comp: CompSweep, Kind: KSweepDone, Src: "chaos", Flow: NoFlow, A: 4, B: 1.5})
	s = p.Snapshot()
	if len(s.Stalled) != 0 || s.Active {
		t.Fatalf("post-done snapshot wrong: %+v", s)
	}
}

// --- rrtrace summary ---

func TestSummarizeCountsStalls(t *testing.T) {
	records := []Event{
		srec(0, CompSweep, KSweepStart, "chaos", NoFlow, 0, map[string]float64{"jobs": 4, "workers": 2}),
		srec(0, CompSweep, KSweepStall, "j2", NoFlow, 2, map[string]float64{"running_s": 7, "worker": 0}),
		srec(0, CompSweep, KSweepDone, "chaos", NoFlow, 0, map[string]float64{"jobs": 4, "wall_s": 0.5}),
	}
	sum := summarize(records)
	if len(sum.Sweeps) != 1 {
		t.Fatalf("sweeps = %d, want 1", len(sum.Sweeps))
	}
	if sw := sum.Sweeps[0]; sw.Stalls != 1 {
		t.Fatalf("stalls=%d, want 1", sw.Stalls)
	}
	out := sum.Render()
	if !strings.Contains(out, "resilience: 1 stall events, 0 degraded") {
		t.Fatalf("Render missing resilience line:\n%s", out)
	}
}

func TestSummarizeOmitsResilienceLineWhenClean(t *testing.T) {
	records := []Event{
		srec(0, CompSweep, KSweepStart, "fig7", NoFlow, 0, map[string]float64{"jobs": 2, "workers": 1}),
		srec(0, CompSweep, KSweepDone, "fig7", NoFlow, 0, map[string]float64{"jobs": 2, "wall_s": 0.1}),
	}
	if out := summarize(records).Render(); strings.Contains(out, "resilience") {
		t.Fatalf("clean sweep rendered a resilience line:\n%s", out)
	}
}

// --- /metrics counters ---

func TestMetricsSinkCountsStalls(t *testing.T) {
	m := NewMetricsSink()
	m.Emit(Event{Comp: CompSweep, Kind: KSweepStall, Src: "j2", Flow: NoFlow, Seq: 2, A: 8, B: 0})
	if got := m.R.Counter("sweep.stalls"); got != 1 {
		t.Fatalf("sweep.stalls = %d, want 1", got)
	}
	// And it survives into the human-readable snapshot.
	if snap := m.R.Snapshot(); !strings.Contains(snap, "sweep.stalls") {
		t.Fatalf("metrics snapshot missing sweep.stalls:\n%s", snap)
	}
}

// --- live status line ---

func TestProgressSinkRendersStall(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressSink(&buf)
	p.Emit(Event{Comp: CompSweep, Kind: KSweepStart, Src: "chaos", Flow: NoFlow, A: 4, B: 2})
	p.Emit(Event{Comp: CompSweep, Kind: KSweepStall, Src: "j1", Flow: NoFlow, Seq: 1, A: 12.3, B: 0})
	p.Emit(Event{Comp: CompSweep, Kind: KSweepDone, Src: "chaos", Flow: NoFlow, A: 4, B: 1})
	if out, want := buf.String(), "stall: job 1 (j1) running 12.3s on worker 0"; !strings.Contains(out, want) {
		t.Fatalf("status output missing %q:\n%s", want, out)
	}
}
