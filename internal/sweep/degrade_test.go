package sweep

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rrtcp/internal/telemetry"
)

// budgetErr is a minimal Degraded-marked error, standing in for
// guard.OverloadError / invariant.StallError without the import.
type budgetErr struct{ resource string }

func (e *budgetErr) Error() string  { return fmt.Sprintf("%s budget exceeded", e.resource) }
func (e *budgetErr) Degraded() bool { return true }

func TestIsDegradedWalksWrapChains(t *testing.T) {
	base := &budgetErr{resource: "events"}
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain failure"), false},
		{base, true},
		{fmt.Errorf("cell 3: %w", base), true},
		{fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", base)), true},
	}
	for _, c := range cases {
		if got := IsDegraded(c.err); got != c.want {
			t.Fatalf("IsDegraded(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestSweepConvertsDegradedJobsToResults(t *testing.T) {
	var events []telemetry.Event
	bus := telemetry.NewBus(sinkFunc(func(ev telemetry.Event) { events = append(events, ev) }))
	attempts := 0
	jobs := []Job{
		spinJob(10),
		{Name: "blown", Run: func(seed int64) (any, error) {
			attempts++
			return nil, fmt.Errorf("cell wrap: %w", &budgetErr{resource: "events"})
		}},
		spinJob(20),
	}
	results, err := Run(Config{Name: "t", Workers: 1, Telemetry: bus}, jobs)
	if err != nil {
		t.Fatalf("a degraded job must not fail the sweep: %v", err)
	}
	if attempts != 1 {
		t.Fatalf("degraded job ran %d times, want once", attempts)
	}
	deg, ok := results[1].(Degraded)
	if !ok {
		t.Fatalf("results[1] = %T, want Degraded", results[1])
	}
	if deg.Job != "blown" || deg.Index != 1 || !IsDegraded(deg.Err) {
		t.Fatalf("Degraded = %+v", deg)
	}
	if results[0] == nil || results[2] == nil {
		t.Fatal("healthy jobs around the degraded one lost their results")
	}
	var seen int
	for _, ev := range events {
		if ev.Kind == telemetry.KSweepDegraded {
			seen++
			if ev.Src != "blown" || ev.Seq != 1 {
				t.Fatalf("degrade event = %+v, want src blown seq 1", ev)
			}
		}
	}
	if seen != 1 {
		t.Fatalf("%d sweep-degraded events published, want 1", seen)
	}
}

func TestDegradedJobsAreNotJournaled(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{
		spinJob(10),
		{Name: "blown", Run: func(seed int64) (any, error) {
			return nil, &budgetErr{resource: "event-storm"}
		}},
	}
	cfg := Config{Name: "t", Workers: 1}
	decode := func(data []byte) (any, error) {
		var v int64
		_, err := fmt.Sscan(string(data), &v)
		return v, err
	}
	journal, err := OpenJournal(dir, cfg, jobs, false, decode)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = journal
	if _, err := Run(cfg, jobs); err != nil {
		t.Fatal(err)
	}
	journal.Close()

	// Resume: the healthy job restores, the degraded one must re-run
	// (and deterministically re-degrade).
	reran := false
	jobs[1].Run = func(seed int64) (any, error) {
		reran = true
		return nil, &budgetErr{resource: "event-storm"}
	}
	journal, err = OpenJournal(dir, cfg, jobs, true, decode)
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	if journal.RestoredCount() != 1 {
		t.Fatalf("restored %d jobs, want only the healthy one", journal.RestoredCount())
	}
	cfg.Checkpoint = journal
	results, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reran {
		t.Fatal("degraded job was restored from the journal instead of re-running")
	}
	if _, ok := results[1].(Degraded); !ok {
		t.Fatalf("resumed results[1] = %T, want Degraded", results[1])
	}
}

func TestDegradedString(t *testing.T) {
	d := Degraded{Job: "cell3", Index: 3, Seed: 42, Err: &budgetErr{resource: "events"}}
	s := d.String()
	if !strings.Contains(s, "cell3") || !strings.Contains(s, "events budget exceeded") {
		t.Fatalf("String() = %q", s)
	}
}
