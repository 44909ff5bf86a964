package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/sweep"
	"rrtcp/internal/telemetry"
)

// work is what a set of worlds cost the scheduler: the events Processed
// counts, and of them the ones it dispatched. The rest are serialization
// completions that found the queue empty, which the links settled
// themselves instead (sim.Scheduler.Reserve).
type work struct{ processed, dispatched uint64 }

func (w *work) add(s *sim.Scheduler) {
	w.processed += s.Processed()
	// sim exports no dispatched count (Processed is the count a world
	// reads), and an experiment's worlds are beyond the reach of sim's
	// own tests, so the count is read off the scheduler's field.
	w.dispatched += reflect.ValueOf(s).Elem().FieldByName("dispatched").Uint()
}

// pinnedWork is the work of every golden scenario and of every
// experiment `rrsim all -quick` runs, at seed 1. Processed must never
// move without a change to what is simulated; dispatched moves with how
// the engine schedules it.
var pinnedWork = map[string]work{
	// examples/scenarios
	"burstloss":        {1813, 994},
	"red-contention":   {11674, 6961},
	"twoway-fairqueue": {71384, 41711},
	// examples/scenarios as rrsim run -events runs them: an NDJSON sink
	// on the bus and gauges sampled every 10 ms
	"burstloss -events":        {2081, 1262},
	"red-contention -events":   {12674, 7959},
	"twoway-fairqueue -events": {77384, 47710},
	// rrsim all -quick
	"fig5 drops 3": {7288, 4080},
	"fig5 drops 6": {7348, 4098},
	"fig6":         {175400, 107698},
	"fig7":         {239175, 135908},
	"table5":       {1227350, 742710},
	"ackloss":      {69574, 42398},
	"fairshare":    {6569, 5152},
	"twoway":       {61639, 39268},
	"smoothstart":  {4850, 2843},
	"bursty":       {1819148, 1048537},
	"ablation":     {9045, 5029},
	"stress":       {208872, 208872}, // under a guard: every completion pushed
	// fig7 without -quick, and the suites
	"fig7 full":        {4446554, 2529950},
	"rrsim all -quick": {3836258, 2346593},
	"rrsim all":        {8043637, 4740635}, // the suite paper-suite times: 41 % fewer events dispatched
}

// TestWorkRemoved pins what each golden scenario, with telemetry off and
// on, and each experiment of `rrsim all -quick` processes and
// dispatches, and holds the dispatched
// share where the reserved completions remove most: the long dumbbell
// runs behind the paper's figures, and the suite as a whole.
func TestWorkRemoved(t *testing.T) {
	got := map[string]work{}
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found (%v)", err)
	}
	for _, path := range files {
		for _, events := range []bool{false, true} {
			spec, err := scenario.LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			name := strings.TrimSuffix(filepath.Base(path), ".json")
			if events {
				spec.Telemetry = telemetry.NewBus(telemetry.NewNDJSONSink(io.Discard))
				spec.SampleEvery = 10 * time.Millisecond
				name += " -events"
			}
			w, err := scenario.Build(spec.Seed, spec)
			if err != nil {
				t.Fatal(err)
			}
			w.Run(time.Duration(spec.Duration))
			var c work
			c.add(w.Sched)
			got[name] = c
		}
	}
	// The experiments of rrsim all, which runs fig5 at 3 and 6 drops, and
	// with them the full fig7 that -quick shrinks: quick and full, the
	// suite the paper-suite benchmark times is one fig7 apart.
	var quick, full work
	for _, reg := range Experiments() {
		if reg.Name == "chaos" {
			continue // not in rrsim all
		}
		runs := []Options{{Quick: true}}
		switch reg.Name {
		case "fig5":
			runs = []Options{{Quick: true, Drops: 3}, {Quick: true, Drops: 6}}
		case "fig7":
			runs = append(runs, Options{})
		}
		for _, o := range runs {
			name := reg.Name
			if o.Drops > 0 {
				name += fmt.Sprintf(" drops %d", o.Drops)
			}
			if !o.Quick {
				name += " full"
			}
			e, err := reg.Build(o)
			if err != nil {
				t.Fatal(err)
			}
			worlds := &freeList[scenario.World]{}
			var c work
			for _, job := range e.(interface {
				jobsOn(*freeList[scenario.World]) []sweep.Job
			}).jobsOn(worlds) {
				if _, err := job.Run(job.Seed); err != nil {
					t.Fatalf("%s, job %q: %v", name, job.Name, err)
				}
				c.add(worlds.free[0].Sched) // the job's world, back on the list
			}
			got[name] = c
			if name != "fig7 full" {
				quick.processed, quick.dispatched = quick.processed+c.processed, quick.dispatched+c.dispatched
			}
			if name != "fig7" {
				full.processed, full.dispatched = full.processed+c.processed, full.dispatched+c.dispatched
			}
		}
	}
	got["rrsim all -quick"], got["rrsim all"] = quick, full
	for name, c := range got {
		if want, ok := pinnedWork[name]; !ok || c != want {
			t.Errorf("%q: {%d, %d}, // %.1f %% dispatched; pinned %v", name, c.processed, c.dispatched,
				100*float64(c.dispatched)/float64(c.processed), want)
		}
	}
	if len(got) != len(pinnedWork) {
		t.Errorf("%d rows pinned, %d measured", len(pinnedWork), len(got))
	}
	for _, name := range []string{"fig7", "fig7 full", "bursty", "table5", "rrsim all -quick", "rrsim all"} {
		if c := got[name]; float64(c.dispatched) > 0.65*float64(c.processed) {
			t.Errorf("%s dispatched %d of %d events, want at most 65 %%", name, c.dispatched, c.processed)
		}
	}
}
