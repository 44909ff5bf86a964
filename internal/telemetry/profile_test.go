package telemetry

import (
	"testing"
	"time"

	"rrtcp/internal/sim"
)

// spinChain fires a self-rearming timer n times, 1ms apart, so
// the scheduler processes a known count over a known span of sim time.
func spinChain(t *testing.T, sched *sim.Scheduler, n int) {
	t.Helper()
	fired := 0
	var tick *sim.Timer
	tick = sched.NewTimer(func() {
		fired++
		if fired < n {
			tick.Reset(time.Millisecond)
		}
	})
	tick.Reset(0)
	sched.RunAll()
	if fired != n {
		t.Fatalf("chain fired %d events, want %d", fired, n)
	}
}

func TestAttachSchedulerProfilePublishes(t *testing.T) {
	sched := sim.NewScheduler(1)
	ring := NewRing(0)
	AttachSchedulerProfile(sched, NewBus(ring), 8)
	spinChain(t, sched, 100)

	evs := ring.EventsOf(KSchedProfile)
	if want := 100 / 8; len(evs) != want {
		t.Fatalf("%d profile events for 100 processed at every=8, want %d", len(evs), want)
	}
	var lastSeq int64
	var lastAt sim.Time
	for i, ev := range evs {
		if ev.Comp != CompSim || ev.Flow != NoFlow {
			t.Fatalf("event %d misattributed: %+v", i, ev)
		}
		if ev.Seq != int64(8*(i+1)) {
			t.Fatalf("event %d processed count = %d, want %d", i, ev.Seq, 8*(i+1))
		}
		if ev.Seq <= lastSeq && i > 0 {
			t.Fatalf("processed count not increasing at event %d", i)
		}
		if ev.At < lastAt {
			t.Fatalf("profile sample time regressed at event %d", i)
		}
		// A is the heap depth: the chain keeps at most one event pending.
		if ev.A < 0 || ev.A > 1 {
			t.Fatalf("event %d pending depth %v, want 0 or 1", i, ev.A)
		}
		// B is wall seconds per sim second — nondeterministic, but never
		// negative (sim time only moves forward).
		if ev.B < 0 {
			t.Fatalf("event %d wall-per-sim-sec %v < 0", i, ev.B)
		}
		lastSeq, lastAt = ev.Seq, ev.At
	}
}

func TestAttachSchedulerProfileDefaultInterval(t *testing.T) {
	sched := sim.NewScheduler(1)
	ring := NewRing(0)
	// every=0 falls back to 4096 processed events per sample.
	AttachSchedulerProfile(sched, NewBus(ring), 0)
	spinChain(t, sched, 5000)
	evs := ring.EventsOf(KSchedProfile)
	if len(evs) != 1 {
		t.Fatalf("%d profile events for 5000 processed at the default interval, want 1", len(evs))
	}
	if evs[0].Seq != 4096 {
		t.Fatalf("sample at processed=%d, want 4096", evs[0].Seq)
	}
}

func TestAttachSchedulerProfileDisabled(t *testing.T) {
	// A disabled bus must not install the hook at all: the scheduler
	// stays on its fast path and publishes nothing.
	sched := sim.NewScheduler(1)
	AttachSchedulerProfile(sched, NewBus(), 4)
	spinChain(t, sched, 64)

	// Nil bus and nil scheduler are equally inert.
	AttachSchedulerProfile(sched, nil, 4)
	AttachSchedulerProfile(nil, NewBus(NewRing(0)), 4)
	spinChain(t, sched, 64)
}

func TestSchedulerProfileHookRemoval(t *testing.T) {
	sched := sim.NewScheduler(1)
	ring := NewRing(0)
	AttachSchedulerProfile(sched, NewBus(ring), 4)
	spinChain(t, sched, 16)
	before := len(ring.EventsOf(KSchedProfile))
	if before == 0 {
		t.Fatal("hook never fired")
	}
	// Clearing the hook stops sampling without disturbing the run.
	sched.SetProfileHook(0, nil)
	spinChain(t, sched, 64)
	if after := len(ring.EventsOf(KSchedProfile)); after != before {
		t.Fatalf("removed hook still fired: %d -> %d events", before, after)
	}
}
