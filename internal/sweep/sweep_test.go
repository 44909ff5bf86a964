package sweep

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// spinJob simulates a small deterministic workload: a scheduler seeded
// from the job's seed processes a chain of events and the result folds
// the seed into every firing.
func spinJob(events int) Job {
	return Job{
		Name: fmt.Sprintf("spin-%d", events),
		Seed: DeriveSeed(7, events),
		Run: func(seed int64) (any, error) {
			sched := sim.NewScheduler(seed)
			acc := seed
			var tick *sim.Timer
			fired := 0
			tick = sched.NewTimer(func() {
				acc = acc*6364136223846793005 + 1442695040888963407
				fired++
				if fired < events {
					tick.Reset(1)
				}
			})
			tick.Reset(0)
			sched.RunAll()
			return acc, nil
		},
	}
}

func TestRunOrdersResultsByJobIndex(t *testing.T) {
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = spinJob(50 + i)
	}
	seq, err := Run(Config{Name: "t", Workers: 1}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 9} {
		par, err := Run(Config{Name: "t", Workers: workers}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("workers=%d: result %d = %v, sequential %v", workers, i, par[i], seq[i])
			}
		}
	}
}

// A job runs with its Seed field, zero included: the engine derives
// nothing.
func TestRunHandsJobsTheirSeeds(t *testing.T) {
	seeds := []int64{0, 1234, -5, DeriveSeed(99, 3)}
	jobs := make([]Job, len(seeds))
	for i, seed := range seeds {
		jobs[i] = Job{Seed: seed, Run: func(seed int64) (any, error) { return seed, nil }}
	}
	res, err := Run(Config{Workers: 1}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range seeds {
		if res[i].(int64) != want {
			t.Fatalf("job %d ran with seed %d, want its Seed field %d", i, res[i], want)
		}
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for i := 0; i < 256; i++ {
			s := DeriveSeed(seed, i)
			if seen[s] {
				t.Fatalf("collision at seed=%d index=%d", seed, i)
			}
			seen[s] = true
		}
	}
	// Stable across calls (the determinism contract hangs off this).
	if DeriveSeed(1, 0) != DeriveSeed(1, 0) {
		t.Fatal("derivation not stable")
	}
}

func TestRunReportsLowestIndexedError(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		{Name: "ok", Run: func(int64) (any, error) { return 1, nil }},
		{Name: "first-bad", Run: func(int64) (any, error) { return nil, boom }},
		{Name: "second-bad", Run: func(int64) (any, error) { return nil, errors.New("later") }},
	}
	for _, workers := range []int{1, 3} {
		_, err := Run(Config{Name: "errs", Workers: workers}, jobs)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want the job-1 error", workers, err)
		}
		if !strings.Contains(err.Error(), "first-bad") {
			t.Fatalf("workers=%d: error %q does not name the failing job", workers, err)
		}
	}
}

func TestRunRecoversJobPanic(t *testing.T) {
	jobs := []Job{
		{Name: "fine", Run: func(int64) (any, error) { return 1, nil }},
		{Name: "explodes", Run: func(int64) (any, error) { panic("kaboom") }},
	}
	for _, workers := range []int{1, 2} {
		_, err := Run(Config{Workers: workers}, jobs)
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("workers=%d: panic not surfaced as error: %v", workers, err)
		}
	}
}

func TestRunEmptyJobs(t *testing.T) {
	res, err := Run(Config{}, nil)
	if err != nil || res != nil {
		t.Fatalf("empty sweep: %v, %v", res, err)
	}
}

func TestRunPublishesProgress(t *testing.T) {
	ring := telemetry.NewRing(0)
	bus := telemetry.NewBus(ring)
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Run: func(int64) (any, error) { return nil, nil }}
	}
	if _, err := Run(Config{Name: "prog", Workers: 2, Telemetry: bus}, jobs); err != nil {
		t.Fatal(err)
	}
	evs := ring.Events()
	if evs[0].Kind != telemetry.KSweepStart || evs[0].Src != "prog" {
		t.Fatalf("first event %+v, want sweep-start", evs[0])
	}
	if last := evs[len(evs)-1]; last.Kind != telemetry.KSweepDone {
		t.Fatalf("last event %+v, want sweep-done", last)
	}
	if n := len(ring.EventsOf(telemetry.KSweepStart)); n != 1 {
		t.Fatalf("%d sweep-start events, want 1", n)
	}
	progress := ring.EventsOf(telemetry.KSweepJob)
	if len(progress) != len(jobs) {
		t.Fatalf("%d sweep-job events, want %d", len(progress), len(jobs))
	}
	seenIdx := map[int64]bool{}
	for _, ev := range progress {
		if ev.B != float64(len(jobs)) {
			t.Fatalf("job event total %v, want %d", ev.B, len(jobs))
		}
		seenIdx[ev.Seq] = true
	}
	if len(seenIdx) != len(jobs) {
		t.Fatalf("job events cover %d indices, want %d", len(seenIdx), len(jobs))
	}
}

func TestRunPublishesEngineTiming(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ring := telemetry.NewRing(0)
		bus := telemetry.NewBus(ring)
		jobs := make([]Job, 6)
		for i := range jobs {
			jobs[i] = spinJob(200 + i)
		}
		if _, err := Run(Config{Name: "perf", Workers: workers, Telemetry: bus}, jobs); err != nil {
			t.Fatal(err)
		}
		times := ring.EventsOf(telemetry.KSweepJobTime)
		if len(times) != len(jobs) {
			t.Fatalf("workers=%d: %d job-time events, want %d", workers, len(times), len(jobs))
		}
		seen := map[int64]bool{}
		for _, ev := range times {
			if ev.A < 0 {
				t.Fatalf("negative job wall time %v", ev.A)
			}
			if int(ev.B) < 0 || int(ev.B) >= workers {
				t.Fatalf("workers=%d: job on worker %v", workers, ev.B)
			}
			seen[ev.Seq] = true
		}
		if len(seen) != len(jobs) {
			t.Fatalf("job-time events cover %d indices, want %d", len(seen), len(jobs))
		}
		wk := ring.EventsOf(telemetry.KSweepWorker)
		if len(wk) != workers {
			t.Fatalf("%d worker events, want %d", len(wk), workers)
		}
		var jobsRun float64
		for _, ev := range wk {
			jobsRun += ev.B
		}
		if int(jobsRun) != len(jobs) {
			t.Fatalf("worker events account for %v jobs, want %d", jobsRun, len(jobs))
		}
		done := ring.EventsOf(telemetry.KSweepDone)
		if len(done) != 1 || done[0].B <= 0 {
			t.Fatalf("sweep-done = %+v, want one event with wall seconds", done)
		}
	}
}

func TestRunSilentBusSkipsTiming(t *testing.T) {
	// With no telemetry configured the engine must not publish (or
	// measure) anything — exercised via a bus with no sinks.
	jobs := []Job{spinJob(10)}
	if _, err := Run(Config{Name: "quiet", Workers: 1, Telemetry: telemetry.NewBus()}, jobs); err != nil {
		t.Fatal(err)
	}
}

func TestCollect(t *testing.T) {
	out, err := Collect[int]([]any{1, 2, 3})
	if err != nil || len(out) != 3 || out[2] != 3 {
		t.Fatalf("collect: %v, %v", out, err)
	}
	if _, err := Collect[int]([]any{1, "two"}); err == nil {
		t.Fatal("type mismatch accepted")
	}
}
