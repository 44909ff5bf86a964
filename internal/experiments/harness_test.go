package experiments

import (
	"encoding/json"
	"testing"
	"time"

	"rrtcp/internal/telemetry"
)

// The harness around a sweep — stall watchdog, progress bus,
// checkpoint, guard budgets that never trip — watches and records; it
// never changes a result byte. Each case runs the same experiment with
// and without one piece of harness, at workers 1 and 4.

func TestHarnessNeverChangesChaosResult(t *testing.T) {
	// Multi-megabyte transfers keep the sweep in flight across several
	// of the watchdog's 10ms ticks, so the 1ns threshold reports stalls.
	build := func() Experiment {
		return NewChaosExperiment(ChaosConfig{Schedules: 4, Seed: 7, Bytes: 2_000_000, Horizon: 300 * time.Second})
	}
	baseRender, baseJSON := runAt(t, build, 1)
	stalls := telemetry.NewRing(0)
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		for _, c := range []struct {
			name string
			opt  RunOptions
		}{
			{"bare", RunOptions{}},
			{"stall watchdog", RunOptions{StallAfter: time.Nanosecond, Progress: telemetry.NewBus(stalls)}},
			{"progress bus", RunOptions{Progress: telemetry.NewBus(telemetry.NewProgressState(), telemetry.NewMetricsSink())}},
			{"checkpoint", RunOptions{CheckpointDir: dir}},
			{"checkpoint resumed", RunOptions{CheckpointDir: dir, Resume: true}},
		} {
			c.opt.Parallel = workers
			res, err := Run(build(), c.opt)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, c.name, err)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if render := res.Render(); render != baseRender || string(js) != baseJSON {
				t.Fatalf("workers=%d: the %s changed the chaos result:\n--- bare ---\n%s\n--- with %s ---\n%s",
					workers, c.name, baseRender, c.name, render)
			}
		}
	}
	if len(stalls.EventsOf(telemetry.KSweepStall)) == 0 {
		t.Fatal("a 1ns stall threshold reported no stalls; the watchdog case tested nothing")
	}
}

func TestHarnessNeverChangesStressResult(t *testing.T) {
	run := func(workers int, maxEvents uint64) string {
		e := NewStressExperiment(StressConfig{MaxEvents: maxEvents})
		res, err := Run(e, RunOptions{Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		if d := res.(*StressResult).Degraded; len(d) != 0 {
			t.Fatalf("MaxEvents=%d: cells degraded %+v", maxEvents, d)
		}
		return res.Render()
	}
	base := run(1, 0)
	for _, workers := range []int{1, 4} {
		if got := run(workers, 1<<62); got != base {
			t.Fatalf("workers=%d: an untripped event budget changed the stress report:\n--- no budget ---\n%s\n--- budget 1<<62 ---\n%s",
				workers, base, got)
		}
	}
}
