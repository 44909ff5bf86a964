package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"rrtcp/internal/faults"
	"rrtcp/internal/scenario"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// sharingCases are one healthy case and the two deliberate breakages,
// all at seed 42. The healthy case runs under every random injector so
// its generators are drawn from.
func sharingCases() (healthy, wedge, actnum ChaosCase) {
	healthy = ChaosCase{Variant: "reno", Seed: 42, Bytes: 100 * 1000, Horizon: faults.Duration(60 * time.Second)}
	wedge, actnum = healthy, healthy
	wedge.Breakage = "wedge"
	actnum.Variant, actnum.Breakage = "rr", "actnum"
	healthy.Plan = faults.PlanSpec{
		Flaps:       []faults.FlapSpec{{At: faults.Duration(2 * time.Second), Down: faults.Duration(300 * time.Millisecond)}},
		ReorderRate: 0.02, ReorderMinDelay: faults.Duration(time.Millisecond), ReorderMaxDelay: faults.Duration(20 * time.Millisecond),
		DuplicateRate: 0.01,
		CorruptRate:   0.01,
		Ack:           &faults.AckSpec{Hold: faults.Duration(20 * time.Millisecond), Max: 4},
	}
	return healthy, wedge, actnum
}

// parentBundleDigests are the sha256 of the repro bundles commit 9acbe96
// (eager ring copy, fresh ring per case, global packet IDs) wrote for
// the wedge and actnum cases: the bundle format and the event tail are
// part of the determinism contract.
var parentBundleDigests = map[string]string{
	"chaos-reno-wedge-42.json": "05ca1479b30301eab71982f1d361d0df83389ea7c53340fac1d532ca012d1819",
	"chaos-rr-actnum-42.json":  "718fcb6d31e74448e22f99e29020f86256d742a9c2b3b00de0ecda1091e06d8c",
}

// A sweep whose jobs take their rings from the experiment's free list
// writes the bundles the parent commit wrote, at any worker count. The
// healthy case runs first, so at one worker both violating cases run
// on the ring it used.
func TestChaosBundlesMatchParentCommit(t *testing.T) {
	healthy, wedge, actnum := sharingCases()
	healthy.Plan = faults.PlanSpec{} // as pinned: the parent's healthy case ran no plan
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		e := newChaosExperiment(ChaosConfig{
			Schedules: 1, Seed: 1, Bytes: healthy.Bytes, Horizon: 60 * time.Second, BundleDir: dir,
			Variants: []workload.Kind{workload.Reno, workload.Reno, workload.RR},
		}, []ChaosCase{healthy, wedge, actnum})
		res, err := Run(e, RunOptions{Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		failures := res.(*ChaosResult).Failures
		if len(failures) != 2 {
			t.Fatalf("workers %d: %d failures, want the 2 broken cases:\n%s", workers, len(failures), res.Render())
		}
		for _, f := range failures {
			data, err := os.ReadFile(f.Bundle)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			name := filepath.Base(f.Bundle)
			if got := hex.EncodeToString(sum[:]); got != parentBundleDigests[name] {
				t.Errorf("workers %d: %s (%d bytes) has sha256 %s, parent commit wrote %s",
					workers, name, len(data), got, parentBundleDigests[name])
			}
		}
	}
}

// A healthy outcome carries no event tail; a violating one does.
func TestChaosEventsOnlyForViolations(t *testing.T) {
	healthy, wedge, _ := sharingCases()
	out, err := RunChaosCase(healthy)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 || out.Events != nil {
		t.Fatalf("healthy case: %d violations, %d events; want none and nil", len(out.Violations), len(out.Events))
	}
	out, err = RunChaosCase(wedge)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) == 0 || len(out.Events) != chaosRingCap {
		t.Fatalf("wedge case: %d violations, %d events; want a full ring", len(out.Violations), len(out.Events))
	}
}

// runWorld runs c as a job of a sweep whose free list is worlds does,
// with extra sinks on its bus, and returns its outcome and the world it
// ran on.
func runWorld(t *testing.T, worlds *freeList[scenario.World], c ChaosCase, extra ...telemetry.Sink) (ChaosOutcome, *scenario.World) {
	t.Helper()
	var out ChaosOutcome
	var used *scenario.World
	if _, err := worlds.run(func(w *scenario.World) (any, error) {
		used = w
		var err error
		out, err = runChaosCase(c, w, extra)
		return nil, err
	}); err != nil {
		t.Fatal(err)
	}
	return out, used
}

// A world that has been through a healthy job — run to its end — hands
// the next job a world as clean as a new one: each case gives the
// outcome and the event stream it gives on a fresh world. The actnum
// case violates on its first events, so anything left over from the
// run before it would show.
func TestChaosRecycledWorldLeaksNothing(t *testing.T) {
	healthy, wedge, actnum := sharingCases()
	worlds := &freeList[scenario.World]{}
	for _, c := range []ChaosCase{actnum, wedge, healthy} {
		all := telemetry.NewRing(0)
		fresh, err := runChaosCase(c, &scenario.World{}, []telemetry.Sink{all})
		if err != nil {
			t.Fatal(err)
		}
		freshStream := all.Events()

		_, w := runWorld(t, worlds, healthy)
		if w.Sched.Processed() < chaosRingCap {
			t.Fatalf("healthy case processed only %d events", w.Sched.Processed())
		}
		all = telemetry.NewRing(0)
		recycled, again := runWorld(t, worlds, c, all)
		if again != w {
			t.Fatal("free list did not hand the world back")
		}
		if c.Breakage != "" && len(fresh.Violations) == 0 {
			t.Fatalf("%s: no violation on a fresh world", c.Breakage)
		}
		if !reflect.DeepEqual(recycled, fresh) {
			t.Fatalf("%s%s on a recycled world: %v, on a fresh world %v", c.Variant, c.Breakage, recycled, fresh)
		}
		if !reflect.DeepEqual(all.Events(), freshStream) {
			t.Fatalf("%s%s: event stream on a recycled world differs from fresh", c.Variant, c.Breakage)
		}
		// The outcome does not alias the world: reusing it must not
		// rewrite the outcome.
		runWorld(t, worlds, healthy)
		if !reflect.DeepEqual(recycled, fresh) {
			t.Fatalf("%s%s outcome changed when its world was reused", c.Variant, c.Breakage)
		}
	}
}

// panicSink panics at its nth event: a job that dies mid-run.
type panicSink struct{ n int }

func (p *panicSink) Emit(telemetry.Event) {
	if p.n--; p.n == 0 {
		panic("sink gave up")
	}
}

// A job that fails — an error after its world was built and its flow
// installed, or a panic mid-run — does not hand its world on: the free
// list stays empty, and the next job, on a new world, gives the outcome
// and the stream a fresh world gives.
func TestChaosFailedJobDropsItsScratch(t *testing.T) {
	healthy, _, _ := sharingCases()
	all := telemetry.NewRing(0)
	want, err := runChaosCase(healthy, &scenario.World{}, []telemetry.Sink{all})
	if err != nil {
		t.Fatal(err)
	}
	wantStream := all.Events()

	badPlan := healthy
	badPlan.Plan.DuplicateRate = 1.5 // the plan is checked after the flow is installed
	failures := map[string]func(worlds *freeList[scenario.World]) *scenario.World{
		"error": func(worlds *freeList[scenario.World]) (used *scenario.World) {
			if _, err := worlds.run(func(w *scenario.World) (any, error) {
				used = w
				return runChaosCase(badPlan, w, nil)
			}); err == nil {
				t.Fatal("a plan with a duplicate rate of 1.5 was accepted")
			}
			return used
		},
		"panic": func(worlds *freeList[scenario.World]) (used *scenario.World) {
			defer func() {
				if recover() == nil {
					t.Fatal("the job did not panic")
				}
			}()
			worlds.run(func(w *scenario.World) (any, error) {
				used = w
				return runChaosCase(healthy, w, []telemetry.Sink{&panicSink{n: 300}})
			})
			return used
		},
	}
	for name, fail := range failures {
		worlds := &freeList[scenario.World]{}
		runWorld(t, worlds, healthy) // the failing job gets a used world
		failed := fail(worlds)
		if failed == nil || len(worlds.free) != 0 {
			t.Fatalf("%s: the failed job's world went back on the free list", name)
		}
		all := telemetry.NewRing(0)
		got, w := runWorld(t, worlds, healthy, all)
		if w == failed {
			t.Fatalf("%s: the next job ran on the failed job's world", name)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(all.Events(), wantStream) {
			t.Fatalf("%s: the job after a failed one diverged from a fresh world", name)
		}
	}
}

// Jobs share nothing a simulation writes: the same cases run on four
// goroutines at once, worlds drawn from one free list as in a sweep,
// produce identical outcomes and identical event streams. Run under
// -race (CI repeats it) this is also the check that no package-level
// state crept back onto the packet path.
func TestChaosConcurrentJobsShareNothing(t *testing.T) {
	healthy, wedge, actnum := sharingCases()
	cases := []ChaosCase{healthy, wedge, actnum}
	type run struct {
		outs    []ChaosOutcome
		streams [][]telemetry.Event
	}
	const workers = 4
	runs := make([]run, workers)
	worlds := &freeList[scenario.World]{}
	var wg sync.WaitGroup
	for w := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, c := range cases {
					all := telemetry.NewRing(0)
					var out ChaosOutcome
					_, err := worlds.run(func(w *scenario.World) (any, error) {
						var err error
						out, err = runChaosCase(c, w, []telemetry.Sink{all})
						return nil, err
					})
					if err != nil {
						t.Error(err)
						return
					}
					if round == 0 {
						runs[w].outs = append(runs[w].outs, out)
						runs[w].streams = append(runs[w].streams, all.Events())
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := len(runs[0].streams[0]); n < chaosRingCap {
		t.Fatalf("healthy case published only %d events", n)
	}
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(runs[w].outs, runs[0].outs) {
			t.Errorf("goroutine %d: outcomes differ from goroutine 0", w)
		}
		if !reflect.DeepEqual(runs[w].streams, runs[0].streams) {
			t.Errorf("goroutine %d: event streams differ from goroutine 0", w)
		}
	}
}
