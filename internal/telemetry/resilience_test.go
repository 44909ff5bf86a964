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
	nd.Emit(Event{Comp: CompSweep, Kind: KSweepRetry, Src: "j3", Flow: NoFlow, Seq: 3, A: 2, B: 0.2})
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"sweep-stall","src":"j3","seq":3,"running_s":12.5,"worker":1}`) {
		t.Fatalf("stall line wrong:\n%s", buf.String())
	}
	evs := mustDecode(t, &buf)
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2", len(evs))
	}
	stall, retry := evs[0], evs[1]
	if stall.Kind != KSweepStall || stall.A != 12.5 || stall.B != 1 {
		t.Fatalf("stall event wrong: %+v", stall)
	}
	if retry.Kind != KSweepRetry || retry.A != 2 || retry.B != 0.2 {
		t.Fatalf("retry event wrong: %+v", retry)
	}
}

// --- /progress materialized view ---

func TestProgressStateTracksStallsAndRetries(t *testing.T) {
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

	// A retry for a stalled job means the wedged attempt was abandoned:
	// it leaves the stalled list and bumps the retry counter.
	p.Emit(Event{Comp: CompSweep, Kind: KSweepRetry, Src: "j1", Flow: NoFlow, Seq: 1, A: 1, B: 0.1})
	s = p.Snapshot()
	if s.Retries != 1 || len(s.Stalled) != 1 || s.Stalled[0].Index != 2 {
		t.Fatalf("retry handling wrong: retries=%d stalled=%+v", s.Retries, s.Stalled)
	}

	// Completion clears the job's stall entry too.
	p.Emit(Event{Comp: CompSweep, Kind: KSweepJob, Src: "j2", Flow: NoFlow, Seq: 2, A: 1, B: 4})
	if s = p.Snapshot(); len(s.Stalled) != 0 {
		t.Fatalf("completed job still listed as stalled: %+v", s.Stalled)
	}

	// Sweep end leaves no stale stall state behind.
	p.Emit(Event{Comp: CompSweep, Kind: KSweepStall, Src: "j3", Flow: NoFlow, Seq: 3, A: 2, B: 0})
	p.Emit(Event{Comp: CompSweep, Kind: KSweepDone, Src: "chaos", Flow: NoFlow, A: 4, B: 1.5})
	s = p.Snapshot()
	if len(s.Stalled) != 0 || s.Active {
		t.Fatalf("post-done snapshot wrong: %+v", s)
	}
	if s.Retries != 1 {
		t.Fatalf("retry counter lost at sweep end: %+v", s)
	}
}

// --- rrtrace summary ---

func TestSummarizeCountsRetriesAndStalls(t *testing.T) {
	records := []Event{
		srec(0, CompSweep, KSweepStart, "chaos", NoFlow, 0, map[string]float64{"jobs": 4, "workers": 2}),
		srec(0, CompSweep, KSweepRetry, "j1", NoFlow, 1, map[string]float64{"attempt": 1, "backoff_s": 0.1}),
		srec(0, CompSweep, KSweepStall, "j2", NoFlow, 2, map[string]float64{"running_s": 7, "worker": 0}),
		srec(0, CompSweep, KSweepRetry, "j1", NoFlow, 1, map[string]float64{"attempt": 2, "backoff_s": 0.2}),
		srec(0, CompSweep, KSweepDone, "chaos", NoFlow, 0, map[string]float64{"jobs": 4, "wall_s": 0.5}),
	}
	sum := Summarize(records)
	if len(sum.Sweeps) != 1 {
		t.Fatalf("sweeps = %d, want 1", len(sum.Sweeps))
	}
	sw := sum.Sweeps[0]
	if sw.Retries != 2 || sw.Stalls != 1 {
		t.Fatalf("retries=%d stalls=%d, want 2 and 1", sw.Retries, sw.Stalls)
	}
	out := sum.Render()
	if !strings.Contains(out, "resilience: 2 retries, 1 stall events") {
		t.Fatalf("Render missing resilience line:\n%s", out)
	}
}

func TestSummarizeOmitsResilienceLineWhenClean(t *testing.T) {
	records := []Event{
		srec(0, CompSweep, KSweepStart, "fig7", NoFlow, 0, map[string]float64{"jobs": 2, "workers": 1}),
		srec(0, CompSweep, KSweepDone, "fig7", NoFlow, 0, map[string]float64{"jobs": 2, "wall_s": 0.1}),
	}
	if out := Summarize(records).Render(); strings.Contains(out, "resilience") {
		t.Fatalf("clean sweep rendered a resilience line:\n%s", out)
	}
}

// --- /metrics counters ---

func TestMetricsSinkCountsRetriesAndStalls(t *testing.T) {
	m := NewMetricsSink()
	m.Emit(Event{Comp: CompSweep, Kind: KSweepRetry, Src: "j1", Flow: NoFlow, Seq: 1, A: 1, B: 0.1})
	m.Emit(Event{Comp: CompSweep, Kind: KSweepRetry, Src: "j1", Flow: NoFlow, Seq: 1, A: 2, B: 0.2})
	m.Emit(Event{Comp: CompSweep, Kind: KSweepStall, Src: "j2", Flow: NoFlow, Seq: 2, A: 8, B: 0})
	if got := m.R.Counter("sweep.retries"); got != 2 {
		t.Fatalf("sweep.retries = %d, want 2", got)
	}
	if got := m.R.Counter("sweep.stalls"); got != 1 {
		t.Fatalf("sweep.stalls = %d, want 1", got)
	}
	// And both survive into the human-readable snapshot.
	snap := m.R.Snapshot()
	for _, want := range []string{"sweep.retries", "sweep.stalls"} {
		if !strings.Contains(snap, want) {
			t.Fatalf("metrics snapshot missing %q:\n%s", want, snap)
		}
	}
}

// --- live status line ---

func TestProgressSinkRendersStallAndRetry(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressSink(&buf)
	p.Emit(Event{Comp: CompSweep, Kind: KSweepStart, Src: "chaos", Flow: NoFlow, A: 4, B: 2})
	p.Emit(Event{Comp: CompSweep, Kind: KSweepStall, Src: "j1", Flow: NoFlow, Seq: 1, A: 12.3, B: 0})
	p.Emit(Event{Comp: CompSweep, Kind: KSweepRetry, Src: "j1", Flow: NoFlow, Seq: 1, A: 2, B: 0.2})
	p.Emit(Event{Comp: CompSweep, Kind: KSweepDone, Src: "chaos", Flow: NoFlow, A: 4, B: 1})
	out := buf.String()
	for _, want := range []string{
		"stall: job 1 (j1) running 12.3s on worker 0",
		"retry: job 1 (j1) attempt 2 failed, backing off 0.2s",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("status output missing %q:\n%s", want, out)
		}
	}
}
