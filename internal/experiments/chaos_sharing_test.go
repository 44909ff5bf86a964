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
		e := &ChaosExperiment{
			cfg: ChaosConfig{
				Schedules: 1, Seed: 1, Bytes: healthy.Bytes, Horizon: 60 * time.Second, BundleDir: dir,
				Variants: []workload.Kind{workload.Reno, workload.Reno, workload.RR},
			},
			cases: []ChaosCase{healthy, wedge, actnum},
		}
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

// runScratch runs c as a job of a sweep whose free list is scratch does,
// with extra sinks on its bus, and returns its outcome and the scratch it
// ran on.
func runScratch(t *testing.T, scratch *freeList[chaosScratch], c ChaosCase, extra ...telemetry.Sink) (ChaosOutcome, *chaosScratch) {
	t.Helper()
	var out ChaosOutcome
	var used *chaosScratch
	if _, err := scratch.run(func(sc *chaosScratch) (any, error) {
		used = sc
		var err error
		out, err = runChaosCase(c, sc, extra)
		return nil, err
	}); err != nil {
		t.Fatal(err)
	}
	return out, used
}

// Scratch that has been through a healthy job — a world run to its end,
// a ring that wrapped — hands the next job a world and a tail as clean
// as new ones: each case gives the outcome and the event stream it gives
// on fresh scratch. The actnum case violates on its first events, so
// anything left over from the 512 events before it would show.
func TestChaosRecycledRingLeaksNothing(t *testing.T) {
	healthy, wedge, actnum := sharingCases()
	scratch := &freeList[chaosScratch]{}
	for _, c := range []ChaosCase{actnum, wedge, healthy} {
		all := telemetry.NewRing(0)
		fresh, err := runChaosCase(c, &chaosScratch{}, []telemetry.Sink{all})
		if err != nil {
			t.Fatal(err)
		}
		freshStream := all.Events()

		_, sc := runScratch(t, scratch, healthy)
		if sc.ring.Total() < chaosRingCap {
			t.Fatalf("healthy case published only %d events: the ring never wrapped", sc.ring.Total())
		}
		all = telemetry.NewRing(0)
		recycled, again := runScratch(t, scratch, c, all)
		if again != sc {
			t.Fatal("free list did not hand the scratch back")
		}
		if c.Breakage != "" && len(fresh.Events) == 0 {
			t.Fatalf("%s: no event tail on fresh scratch", c.Breakage)
		}
		if !reflect.DeepEqual(recycled, fresh) {
			t.Fatalf("%s%s on recycled scratch: %d events, on fresh scratch %d", c.Variant, c.Breakage, len(recycled.Events), len(fresh.Events))
		}
		if !reflect.DeepEqual(all.Events(), freshStream) {
			t.Fatalf("%s%s: event stream on recycled scratch differs from fresh", c.Variant, c.Breakage)
		}
		// The outcome owns its tail: reusing the scratch must not rewrite it.
		runScratch(t, scratch, healthy)
		if !reflect.DeepEqual(recycled, fresh) {
			t.Fatalf("%s%s outcome changed when its scratch was reused", c.Variant, c.Breakage)
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
// installed, or a panic mid-run — does not hand its scratch on: the free
// list stays empty, and the next job, on new scratch, gives the outcome
// and the stream a fresh world gives.
func TestChaosFailedJobDropsItsScratch(t *testing.T) {
	healthy, _, _ := sharingCases()
	all := telemetry.NewRing(0)
	want, err := runChaosCase(healthy, &chaosScratch{}, []telemetry.Sink{all})
	if err != nil {
		t.Fatal(err)
	}
	wantStream := all.Events()

	badPlan := healthy
	badPlan.Plan.DuplicateRate = 1.5 // the plan is checked after the flow is installed
	failures := map[string]func(scratch *freeList[chaosScratch]) *chaosScratch{
		"error": func(scratch *freeList[chaosScratch]) (used *chaosScratch) {
			if _, err := scratch.run(func(sc *chaosScratch) (any, error) {
				used = sc
				return runChaosCase(badPlan, sc, nil)
			}); err == nil {
				t.Fatal("a plan with a duplicate rate of 1.5 was accepted")
			}
			return used
		},
		"panic": func(scratch *freeList[chaosScratch]) (used *chaosScratch) {
			defer func() {
				if recover() == nil {
					t.Fatal("the job did not panic")
				}
			}()
			scratch.run(func(sc *chaosScratch) (any, error) {
				used = sc
				return runChaosCase(healthy, sc, []telemetry.Sink{&panicSink{n: 300}})
			})
			return used
		},
	}
	for name, fail := range failures {
		scratch := &freeList[chaosScratch]{}
		runScratch(t, scratch, healthy) // the failing job gets used scratch
		failed := fail(scratch)
		if failed == nil || len(scratch.free) != 0 {
			t.Fatalf("%s: the failed job's scratch went back on the free list", name)
		}
		all := telemetry.NewRing(0)
		got, sc := runScratch(t, scratch, healthy, all)
		if sc == failed {
			t.Fatalf("%s: the next job ran on the failed job's scratch", name)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(all.Events(), wantStream) {
			t.Fatalf("%s: the job after a failed one diverged from a fresh world", name)
		}
	}
}

// Jobs share nothing a simulation writes: the same cases run on four
// goroutines at once, scratch drawn from one free list as in a sweep,
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
	scratch := &freeList[chaosScratch]{}
	var wg sync.WaitGroup
	for w := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, c := range cases {
					all := telemetry.NewRing(0)
					var out ChaosOutcome
					_, err := scratch.run(func(sc *chaosScratch) (any, error) {
						var err error
						out, err = runChaosCase(c, sc, []telemetry.Sink{all})
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
