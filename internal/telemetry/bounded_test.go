package telemetry

import (
	"testing"

	"rrtcp/internal/sim"
)

// capture is a sink recording everything forwarded to it.
type capture struct{ events []Event }

func (c *capture) Emit(ev Event) { c.events = append(c.events, ev) }

func emitN(b *BoundedSink, n int) {
	for i := 0; i < n; i++ {
		b.Emit(Event{At: sim.Time(i), Comp: CompSender, Kind: KCwnd, Flow: 0, A: float64(i)})
	}
}

// payload filters out the sink's own drop markers.
func payload(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Kind != KTelemetryDrops {
			out = append(out, ev)
		}
	}
	return out
}

func TestBoundedSinkZeroBudgetPassesThrough(t *testing.T) {
	var inner capture
	b := NewBoundedSink(&inner, BoundedConfig{})
	emitN(b, 50)
	if len(inner.events) != 50 || b.Kept() != 50 || b.Dropped() != 0 {
		t.Fatalf("pass-through broke: %d forwarded, kept=%d dropped=%d",
			len(inner.events), b.Kept(), b.Dropped())
	}
}

func TestBoundedSinkDropNewest(t *testing.T) {
	var inner capture
	b := NewBoundedSink(&inner, BoundedConfig{MaxEvents: 5, Policy: DropNewest})
	emitN(b, 20)
	kept := payload(inner.events)
	if len(kept) != 5 {
		t.Fatalf("forwarded %d payload events, want the first 5", len(kept))
	}
	for i, ev := range kept {
		if ev.A != float64(i) {
			t.Fatalf("kept event %d has A=%g; DropNewest must keep the head in order", i, ev.A)
		}
	}
	if b.seen != 20 || b.Kept() != 5 || b.Dropped() != 15 {
		t.Fatalf("accounting seen=%d kept=%d dropped=%d, want 20/5/15", b.seen, b.Kept(), b.Dropped())
	}
}

func TestBoundedSinkSampleOneInK(t *testing.T) {
	var inner capture
	b := NewBoundedSink(&inner, BoundedConfig{MaxEvents: 4, Policy: SampleOneInK})
	emitN(b, 4+3*sampleK)
	// Head 0..3 kept; overflow events 4..51 are positions 1..48 past the
	// budget, and every 16th one (positions 16, 32, 48 = events 19, 35,
	// 51) is sampled through.
	var got []float64
	for _, ev := range payload(inner.events) {
		got = append(got, ev.A)
	}
	want := []float64{0, 1, 2, 3, 19, 35, 51}
	if len(got) != len(want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kept %v, want %v", got, want)
		}
	}
	if b.Kept() != 7 || b.Dropped() != 45 {
		t.Fatalf("accounting kept=%d dropped=%d, want 7/45", b.Kept(), b.Dropped())
	}
}

func TestBoundedSinkMarksFirstDropAndFinalize(t *testing.T) {
	var inner capture
	b := NewBoundedSink(&inner, BoundedConfig{MaxEvents: 2, Policy: DropNewest, Src: "cell0"})
	emitN(b, 6)
	var marks []Event
	for _, ev := range inner.events {
		if ev.Kind == KTelemetryDrops {
			marks = append(marks, ev)
		}
	}
	if len(marks) != 1 {
		t.Fatalf("%d drop markers before Finalize, want exactly the first-drop marker", len(marks))
	}
	if marks[0].Src != "cell0" || marks[0].A != 1 || marks[0].B != 2 {
		t.Fatalf("first marker = %+v, want src cell0, dropped=1, kept=2", marks[0])
	}
	b.Finalize(sim.Time(99))
	last := inner.events[len(inner.events)-1]
	if last.Kind != KTelemetryDrops || last.At != sim.Time(99) || last.A != 4 || last.B != 2 {
		t.Fatalf("final marker = %+v, want totals dropped=4 kept=2 at t=99", last)
	}
	// Nothing dropped, nothing finalized.
	var quiet capture
	q := NewBoundedSink(&quiet, BoundedConfig{MaxEvents: 100})
	emitN(q, 3)
	q.Finalize(0)
	if len(payload(quiet.events)) != 3 || len(quiet.events) != 3 {
		t.Fatalf("clean sink emitted a spurious drop marker: %v", quiet.events)
	}
}

// Past the first drop, a marker lands every markEvery drops, stamped at
// the dropped event and carrying the cumulative counts.
func TestBoundedSinkMarkerCadence(t *testing.T) {
	var inner capture
	b := NewBoundedSink(&inner, BoundedConfig{MaxEvents: 1, Policy: DropNewest, Src: "cell0"})
	emitN(b, 1+2*markEvery+1)
	var marks []Event
	for _, ev := range inner.events {
		if ev.Kind == KTelemetryDrops {
			marks = append(marks, ev)
		}
	}
	want := []float64{1, 8192, 16384}
	if len(marks) != len(want) {
		t.Fatalf("%d drop markers over %d drops, want %d", len(marks), b.Dropped(), len(want))
	}
	for i, m := range marks {
		// Event d is the d-th dropped one: event 0 fills the budget.
		if m.A != want[i] || m.B != 1 || m.At != sim.Time(want[i]) || m.Src != "cell0" {
			t.Fatalf("marker %d = %+v, want dropped=%g kept=1 at t=%g", i, m, want[i], want[i])
		}
	}
}

func TestBoundedSinkIsDeterministic(t *testing.T) {
	run := func() []Event {
		var inner capture
		b := NewBoundedSink(&inner, BoundedConfig{MaxEvents: 7, Policy: SampleOneInK})
		emitN(b, 100)
		b.Finalize(sim.Time(100))
		return inner.events
	}
	a, c := run(), run()
	if len(a) != len(c) {
		t.Fatalf("lengths diverged: %d vs %d", len(a), len(c))
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a[i], c[i])
		}
	}
}
