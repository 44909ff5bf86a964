package experiments

import (
	"testing"
	"time"

	"rrtcp/internal/faults"
	"rrtcp/internal/scenario"
)

// allocCeilings is the most allocations the first job of each registered
// experiment may make: about a tenth over what it makes now (the margin
// is for a Go release moving a map or a closure). A count repeats but
// for the runtime's type-assertion caches: an assertion to an interface
// that misses its call site's cache (math/rand.New's src.(Source64),
// under the scheduler's newRand) builds a larger cache about once in
// 1 024 calls, an allocation the job did not ask for. Over 200 runs
// stress read 47 in 195, 48 in 3 and 49 in 2; ackloss, chaos and
// table5 read one over once each. The job is measured on its second
// run, which — as every job of a sweep after a worker's first —
// rebuilds the world the first run left on the sweep's free list. A
// rebuilt world reuses its scheduler,
// link block, lane and queue rings, packet slabs, Timer handles and
// generator tables, and its flows: each slot's sender, receiver and
// trace holder are reset in place, with their out-of-order buffer,
// sample log and timer callback, and so is its strategy when the slot
// runs the same variant again. What it costs is a dozen or two small
// objects — strategies of another variant, the disciplines and
// injectors the spec names, the run's checker and bus, the job's result
// — whatever it then simulates. One source left off the world's pool,
// or one per-event allocation, overshoots these by orders of magnitude:
// before its CBR source drew from the pool the fairshare job made
// 37 627.
var allocCeilings = map[string]float64{
	"fig5":        18, // tahoe, one recorded flow
	"fig6":        29, // 10 flows on RED
	"fig7":        28, // sack at p = 0.001, 30 s
	"table5":      16, // 20 flows
	"ackloss":     26,
	"fairshare":   17, // one flow and a CBR source saturating the ACK path
	"twoway":      18,
	"smoothstart": 6,
	"bursty":      24,
	"ablation":    18,
	"chaos":       30, // tahoe under schedule 0
	"stress":      52, // one cell of 8 flows
}

// TestAllocationBudgets runs one job of every registered experiment and
// holds its allocation count to the committed ceiling (under -race the
// jobs run but no count is held: see raceEnabled).
func TestAllocationBudgets(t *testing.T) {
	for _, reg := range Experiments() {
		ceiling, ok := allocCeilings[reg.Name]
		if !ok {
			t.Errorf("%s: registered experiment without an allocation ceiling", reg.Name)
			continue
		}
		e, err := reg.Build(Options{Quick: true, Cells: 1, Flows: 8})
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := e.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		job := jobs[0]
		got := testing.AllocsPerRun(1, func() { // the warm-up run leaves a world to rebuild
			if _, err := job.Run(job.Seed); err != nil {
				t.Fatal(err)
			}
		})
		if raceEnabled {
			continue // the job ran; its count is the race runtime's
		}
		if got > ceiling {
			t.Errorf("%s, job %q: %.0f allocations, ceiling %.0f", reg.Name, job.Name, got, ceiling)
		}
		if got < ceiling*0.8 {
			t.Errorf("%s, job %q: %.0f allocations, well under the ceiling of %.0f: lower it", reg.Name, job.Name, got, ceiling)
		}
	}
}

// TestChaosCaseAllocationBudget holds one world under every kind of
// fault at once — flap, renegotiation, reordering, duplication (whose
// copies must come from the pool too), corruption, ACK compression — to
// a ceiling, per variant family. Every measured run rebuilds the world
// of the run before, as a chaos sweep's jobs do.
func TestChaosCaseAllocationBudget(t *testing.T) {
	c := ChaosCase{
		Seed:    42,
		Bytes:   200 * 1000,
		Horizon: faults.Duration(120 * time.Second),
		Plan: faults.PlanSpec{
			Flaps:           []faults.FlapSpec{{At: faults.Duration(2 * time.Second), Down: faults.Duration(300 * time.Millisecond)}},
			Renegotiations:  []faults.RenegSpec{{At: faults.Duration(3 * time.Second), BandwidthBps: 0.4e6}},
			ReorderRate:     0.03,
			ReorderMinDelay: faults.Duration(5 * time.Millisecond),
			ReorderMaxDelay: faults.Duration(30 * time.Millisecond),
			DuplicateRate:   0.05,
			CorruptRate:     0.01,
			Ack:             &faults.AckSpec{Hold: faults.Duration(20 * time.Millisecond), Max: 4},
		},
	}
	w := &scenario.World{}
	for variant, ceiling := range map[string]float64{"reno": 28, "rr": 25, "sack": 25} {
		c.Variant = variant
		got := testing.AllocsPerRun(1, func() {
			out, err := runChaosCase(c, w, nil)
			if err != nil || !out.Finished || len(out.Violations) > 0 {
				t.Fatalf("%s: finished %v, violations %v, err %v", variant, out.Finished, out.Violations, err)
			}
		})
		if got > ceiling && !raceEnabled {
			t.Errorf("%s: %.0f allocations for one chaos world, ceiling %.0f", variant, got, ceiling)
		}
	}
}
