package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rrtcp/internal/telemetry"
)

// --- a failure is the seed's: reported once, never re-run ---

func TestRunNeverRetriesDeterministicErrors(t *testing.T) {
	var attempts atomic.Int32
	boom := errors.New("deterministic sim error")
	jobs := []Job{{Name: "det", Run: func(int64) (any, error) {
		attempts.Add(1)
		return nil, boom
	}}}
	_, err := Run(Config{Name: "det", Workers: 1}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the job error", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("deterministic failure attempted %d times, want 1", n)
	}
}

// --- the stall watchdog ---

func TestRunWatchdogReportsStalledJobs(t *testing.T) {
	gate := make(chan struct{})
	jobs := []Job{
		{Name: "stuck", Run: func(int64) (any, error) { <-gate; return 1, nil }},
		{Name: "quick", Run: func(int64) (any, error) { return 2, nil }},
	}
	ring := telemetry.NewRing(0)
	done := make(chan struct{})
	go func() {
		// Release the stuck job once the watchdog has had several
		// chances to observe it past the threshold.
		time.Sleep(150 * time.Millisecond)
		close(gate)
		close(done)
	}()
	if _, err := Run(Config{
		Name: "watch", Workers: 2, Telemetry: telemetry.NewBus(ring),
		StallAfter: 40 * time.Millisecond,
	}, jobs); err != nil {
		t.Fatal(err)
	}
	<-done
	stalls := ring.EventsOf(telemetry.KSweepStall)
	if len(stalls) != 1 {
		t.Fatalf("%d stall events, want exactly 1 (reported once per occupancy)", len(stalls))
	}
	ev := stalls[0]
	if ev.Src != "stuck" || ev.Seq != 0 {
		t.Fatalf("stall event %+v, want job 0 (stuck)", ev)
	}
	if ev.A < 0.04 {
		t.Fatalf("stall reported %.3fs in flight, want >= threshold", ev.A)
	}
}

// --- panics ---

func TestRunPanicNil(t *testing.T) {
	jobs := []Job{{Name: "nil-panic", Run: func(int64) (any, error) { panic(nil) }}}
	_, err := Run(Config{Workers: 1}, jobs)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want a *PanicError", err)
	}
	if _, ok := pe.Value.(*runtime.PanicNilError); !ok {
		t.Fatalf("panic(nil) surfaced as %T (%v), want *runtime.PanicNilError", pe.Value, pe.Value)
	}
}

func TestRunPanicCarriesStack(t *testing.T) {
	jobs := []Job{{Name: "explodes", Run: func(int64) (any, error) { panic("kaboom") }}}
	_, err := Run(Config{Workers: 1}, jobs)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want a *PanicError", err)
	}
	if !strings.Contains(err.Error(), "kaboom") || !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("panic error lacks value or stack snippet:\n%v", err)
	}
	if len(pe.Stack) > 2048+128 {
		t.Fatalf("stack snippet %d bytes, want truncated near 2048", len(pe.Stack))
	}
}

// A panic is the seed's outcome, like any job error: the job runs
// exactly once, the sweep error names the seed that replays it, and the
// jobs around it keep their results.
func TestRunPanicIsReplayableJobError(t *testing.T) {
	const sweepSeed = 13
	bad := DeriveSeed(sweepSeed, 2)
	for _, workers := range []int{1, 4} {
		runs := make([]atomic.Int32, 6)
		jobs := make([]Job, len(runs))
		for i := range jobs {
			jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Seed: DeriveSeed(sweepSeed, i), Run: func(seed int64) (any, error) {
				runs[i].Add(1)
				if seed == bad {
					panic(fmt.Sprintf("bad seed %d", seed))
				}
				return seed, nil
			}}
		}
		res, err := Run(Config{Name: "panics", Workers: workers}, jobs)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want a *PanicError", workers, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, fmt.Sprintf("job 2 (j2, seed %d)", bad)) || !strings.Contains(msg, "goroutine") {
			t.Fatalf("workers=%d: error lacks the replay seed or the stack snippet:\n%s", workers, msg)
		}
		for i := range runs {
			if n := runs[i].Load(); n != 1 {
				t.Fatalf("workers=%d: job %d ran %d times, want exactly once", workers, i, n)
			}
			switch {
			case i == 2 && res[i] != nil:
				t.Fatalf("workers=%d: panicked job left result %v", workers, res[i])
			case i != 2 && res[i] != DeriveSeed(sweepSeed, i):
				t.Fatalf("workers=%d: result %d = %v, want its derived seed", workers, i, res[i])
			}
		}
	}
}

// --- partial results and multi-error reporting ---

func TestRunReturnsPartialResultsWithJoinedErrors(t *testing.T) {
	boom1, boom2 := errors.New("boom-1"), errors.New("boom-2")
	jobs := []Job{
		{Name: "ok-0", Run: func(int64) (any, error) { return 10, nil }},
		{Name: "bad-1", Run: func(int64) (any, error) { return nil, boom1 }},
		{Name: "ok-2", Run: func(int64) (any, error) { return 30, nil }},
		{Name: "bad-3", Run: func(int64) (any, error) { return nil, boom2 }},
	}
	for _, workers := range []int{1, 4} {
		res, err := Run(Config{Name: "partial", Workers: workers}, jobs)
		if !errors.Is(err, boom1) || !errors.Is(err, boom2) {
			t.Fatalf("workers=%d: joined error %v must carry both failures", workers, err)
		}
		// Lowest index first in the rendered message.
		msg := err.Error()
		if strings.Index(msg, "bad-1") > strings.Index(msg, "bad-3") {
			t.Fatalf("workers=%d: errors not lowest-index-first:\n%s", workers, msg)
		}
		if res == nil || res[0] != 10 || res[2] != 30 {
			t.Fatalf("workers=%d: partial results %v, want successes preserved", workers, res)
		}
		if res[1] != nil || res[3] != nil {
			t.Fatalf("workers=%d: failed slots %v, want nil", workers, res)
		}
	}
}

// --- cancellation ---

func TestRunCancellationDrainsAndReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := make(chan struct{})
	started := make(chan int, 8)
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Seed: DeriveSeed(9, i), Run: func(seed int64) (any, error) {
			started <- i
			<-gate
			return seed, nil
		}}
	}
	errc := make(chan error, 1)
	resc := make(chan []any, 1)
	go func() {
		res, err := Run(Config{Name: "cancel", Workers: 2, Context: ctx}, jobs)
		resc <- res
		errc <- err
	}()
	// Wait for both workers to hold a job, cancel dispatch, then let the
	// in-flight pair drain.
	a, b := <-started, <-started
	cancel()
	close(gate)
	res, err := <-resc, <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled in the chain", err)
	}
	if !strings.Contains(err.Error(), "6 of 8 jobs unfinished") {
		t.Fatalf("error %q does not report the partial coverage", err)
	}
	// The two in-flight jobs drained to completion; nothing else ran.
	finished := 0
	for i, r := range res {
		if r != nil {
			finished++
			if i != a && i != b {
				t.Fatalf("job %d has a result but was never started (started %d, %d)", i, a, b)
			}
			if r.(int64) != DeriveSeed(9, i) {
				t.Fatalf("drained job %d result %v, want its seed", i, r)
			}
		}
	}
	if finished != 2 {
		t.Fatalf("%d jobs finished after cancel, want the 2 in flight", finished)
	}
}

func TestRunCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	jobs := []Job{{Name: "never", Run: func(int64) (any, error) { ran.Add(1); return 1, nil }}}
	res, err := Run(Config{Name: "pre-canceled", Workers: 1, Context: ctx}, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("job ran %d times under a pre-canceled context", n)
	}
	if res == nil || res[0] != nil {
		t.Fatalf("results %v, want an all-nil slice", res)
	}
}

// A stall check runs on the loop's ticker until the last in-flight job
// drains, so a job stuck past StallAfter after the cancel is still
// reported, exactly once.
func TestRunReportsStallWhileDraining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started, gate := make(chan struct{}), make(chan struct{})
	jobs := []Job{
		{Name: "stuck", Run: func(int64) (any, error) { close(started); <-gate; return 1, nil }},
		{Name: "never-1", Run: func(int64) (any, error) { return 2, nil }},
		{Name: "never-2", Run: func(int64) (any, error) { return 3, nil }},
	}
	ring := telemetry.NewRing(0)
	errc := make(chan error, 1)
	go func() {
		_, err := Run(Config{
			Name: "drain", Workers: 1, Context: ctx, Telemetry: telemetry.NewBus(ring),
			StallAfter: 40 * time.Millisecond,
		}, jobs)
		errc <- err
	}()
	<-started
	cancel()
	// Several ticks past the threshold, all of them after the cancel.
	time.Sleep(200 * time.Millisecond)
	close(gate)
	err := <-errc
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "2 of 3 jobs unfinished") {
		t.Fatalf("got %v, want a cancel with 2 of 3 jobs unfinished", err)
	}
	stalls := ring.EventsOf(telemetry.KSweepStall)
	if len(stalls) != 1 {
		t.Fatalf("%d stall events while draining, want exactly 1", len(stalls))
	}
	if ev := stalls[0]; ev.Src != "stuck" || ev.Seq != 0 || ev.A < 0.04 {
		t.Fatalf("stall event %+v, want job 0 (stuck) past the threshold", ev)
	}
}

// exitGrace is how long a worker may take to leave the runtime after
// Run has its exit report: the report is the worker's last act, but
// the goroutine still has to return.
const exitGrace = 10 * time.Millisecond

// Run starts no goroutine besides its workers, and every worker has
// exited by the time Run returns, however the sweep ended.
func TestRunLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		{"success", func() error {
			_, err := Run(Config{Name: "ok", Workers: 4}, seedJobs(1, 16))
			return err
		}},
		{"panic", func() error {
			jobs := seedJobs(2, 8)
			jobs[3].Run = func(int64) (any, error) { panic("boom") }
			if _, err := Run(Config{Name: "panic", Workers: 4}, jobs); err == nil {
				return errors.New("panicking job reported no error")
			}
			return nil
		}},
		{"cancel mid-sweep", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			jobs := seedJobs(3, 16)
			jobs[2].Run = func(seed int64) (any, error) { cancel(); return seed, nil }
			_, err := Run(Config{Name: "cancel", Workers: 2, Context: ctx}, jobs)
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("got %v, want context.Canceled", err)
			}
			return nil
		}},
		{"pre-canceled", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := Run(Config{Name: "pre", Workers: 4, Context: ctx}, seedJobs(4, 8))
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("got %v, want context.Canceled", err)
			}
			return nil
		}},
		{"stall check armed", func() error {
			jobs := seedJobs(5, 4)
			jobs[0].Run = func(seed int64) (any, error) { time.Sleep(30 * time.Millisecond); return seed, nil }
			_, err := Run(Config{
				Name: "stall", Workers: 2, Telemetry: telemetry.NewBus(telemetry.NewRing(0)),
				StallAfter: 10 * time.Millisecond,
			}, jobs)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(exitGrace)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines %v after Run returned, %d before it", runtime.NumGoroutine(), exitGrace, before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// --- checkpoint journal ---

// sinkFunc adapts a closure to telemetry.Sink for test hooks.
type sinkFunc func(telemetry.Event)

func (f sinkFunc) Emit(ev telemetry.Event) { f(ev) }

// decodeInt64 inverts json.Marshal of the int64 results the test jobs
// return.
func decodeInt64(data []byte) (any, error) {
	var v int64
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// seedJobs returns n jobs seeded DeriveSeed(seed, i), each returning
// its seed.
func seedJobs(seed int64, n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Seed: DeriveSeed(seed, i), Run: func(seed int64) (any, error) { return seed, nil }}
	}
	return jobs
}

func TestSweepKeyContentAddressing(t *testing.T) {
	jobs := seedJobs(7, 4)
	base := SweepKey("exp", jobs)
	if base != SweepKey("exp", seedJobs(7, 4)) {
		t.Fatal("key not stable for identical sweeps")
	}
	// Pinned: the key journals already on disk carry for this sweep,
	// which hashed a master seed of 0, so they still resume.
	if base != "3a58bc71c12c0b5c" {
		t.Fatalf("key %s, journals on disk carry 3a58bc71c12c0b5c", base)
	}
	if base == SweepKey("other", jobs) {
		t.Fatal("key ignores the sweep name")
	}
	if base == SweepKey("exp", seedJobs(7, 5)) {
		t.Fatal("key ignores the job count")
	}
	renamed := seedJobs(7, 4)
	renamed[2].Name = "renamed"
	if base == SweepKey("exp", renamed) {
		t.Fatal("key ignores job names")
	}
	pinned := seedJobs(7, 4)
	pinned[1].Seed = 1234
	if base == SweepKey("exp", pinned) {
		t.Fatal("key ignores job seeds")
	}
}

func TestJournalResumeProducesIdenticalResults(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Name: "ckpt", Workers: 2}
	jobs := seedJobs(21, 10)

	baseline, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}

	// First run: canceled after the first few completions, journaling
	// what finished.
	j1, err := OpenJournal(dir, cfg, jobs, false, decodeInt64)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ring := telemetry.NewRing(0)
	bus := telemetry.NewBus(ring, sinkFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KSweepJob && ev.A >= 3 {
			cancel()
		}
	}))
	c1 := cfg
	c1.Context = ctx
	c1.Telemetry = bus
	c1.Checkpoint = j1
	_, err = Run(c1, jobs)
	cancel()
	if cerr := j1.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want cancellation", err)
	}

	// Second run: resume. Restored jobs must not re-execute, and the
	// merged output must equal the uninterrupted baseline at a different
	// worker count.
	for _, workers := range []int{1, 4} {
		j2, err := OpenJournal(dir, cfg, jobs, true, decodeInt64)
		if err != nil {
			t.Fatal(err)
		}
		if j2.RestoredCount() < 3 {
			t.Fatalf("resume restored %d jobs, want >= 3", j2.RestoredCount())
		}
		c2 := cfg
		c2.Workers = workers
		c2.Checkpoint = j2
		res, err := Run(c2, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if cerr := j2.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		for i := range baseline {
			if res[i] != baseline[i] {
				t.Fatalf("workers=%d: resumed result %d = %v, baseline %v", workers, i, res[i], baseline[i])
			}
		}
	}
}

func TestJournalToleratesTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Name: "trunc", Workers: 1}
	jobs := seedJobs(5, 4)
	j, err := OpenJournal(dir, cfg, jobs, false, decodeInt64)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Checkpoint = j
	if _, err := Run(c, jobs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-append: chop the final record in half.
	path := filepath.Join(j.Dir(), "journal.ndjson")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, cfg, jobs, true, decodeInt64)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.RestoredCount() != 3 || j2.Skipped() != 1 {
		t.Fatalf("restored %d, skipped %d; want 3 restored, 1 skipped", j2.RestoredCount(), j2.Skipped())
	}
	c2 := cfg
	c2.Checkpoint = j2
	res, err := Run(c2, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if res[i].(int64) != DeriveSeed(5, i) {
			t.Fatalf("post-truncation result %d = %v", i, res[i])
		}
	}
}

func TestJournalRejectsForeignRecords(t *testing.T) {
	dir := t.TempDir()
	jobs := seedJobs(1, 3)
	cfg := Config{Name: "exp", Workers: 1}
	j, err := OpenJournal(dir, cfg, jobs, false, decodeInt64)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Checkpoint = j
	if _, err := Run(c, jobs); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Other job seeds make a different sweep: it must land in its own
	// directory and restore nothing.
	j2, err := OpenJournal(dir, cfg, seedJobs(2, 3), true, decodeInt64)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Dir() == j.Dir() {
		t.Fatal("different sweeps share a journal directory")
	}
	if j2.RestoredCount() != 0 {
		t.Fatalf("foreign journal restored %d jobs", j2.RestoredCount())
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if _, ok := j.Restored(0); ok {
		t.Fatal("nil journal restored a result")
	}
	if j.RestoredCount() != 0 || j.Skipped() != 0 || j.Dir() != "" || j.Key() != "" {
		t.Fatal("nil journal accessors not zero")
	}
	if err := j.Append(0, "x", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
