package guard

import (
	"strings"
	"testing"
	"time"

	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// tickChain arms a self-rearming timer that advances the clock by step
// per firing, forever — a minimal unbounded workload.
func tickChain(sched *sim.Scheduler, step sim.Time) {
	var tick *sim.Timer
	tick = sched.NewTimer(func() { tick.Reset(step) })
	tick.Reset(step)
}

// collector records every event published on the bus.
type collector struct{ events []telemetry.Event }

func (c *collector) Emit(ev telemetry.Event) { c.events = append(c.events, ev) }

func TestMaxEventsTripsDeterministically(t *testing.T) {
	run := func() *OverloadError {
		sched := sim.NewScheduler(1)
		tickChain(sched, time.Millisecond)
		mon := Attach(sched, Limits{MaxEvents: 100}, nil)
		sched.Run(time.Hour)
		return mon.Err()
	}
	first := run()
	if first == nil {
		t.Fatal("budget never tripped")
	}
	if first.Resource != ResourceEvents {
		t.Fatalf("tripped %q, want %q", first.Resource, ResourceEvents)
	}
	if first.Events != 100 {
		t.Fatalf("tripped at event %d, want 100", first.Events)
	}
	if second := run(); *second != *first {
		t.Fatalf("non-deterministic trip: %+v vs %+v", first, second)
	}
}

func TestStormDetectorTripsOnFrozenClock(t *testing.T) {
	sched := sim.NewScheduler(1)
	// A zero-delay self-rescheduling loop: the clock never advances, so
	// no horizon and no sim-time watchdog can end this run.
	tickChain(sched, 0)
	mon := Attach(sched, Limits{StormEvents: 500}, nil)
	done := make(chan struct{})
	go func() {
		sched.Run(time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("storm never tripped; run wedged")
	}
	oe := mon.Err()
	if oe == nil || oe.Resource != ResourceStorm {
		t.Fatalf("got %v, want a %s trip", oe, ResourceStorm)
	}
	if oe.At != 0 {
		t.Fatalf("storm tripped at %v, want the frozen clock's 0", oe.At)
	}
}

func TestStormResetsWhenClockAdvances(t *testing.T) {
	sched := sim.NewScheduler(1)
	tickChain(sched, time.Millisecond) // clock advances every event
	mon := Attach(sched, Limits{StormEvents: 2, MaxEvents: 1000}, nil)
	sched.Run(time.Hour)
	oe := mon.Err()
	if oe == nil || oe.Resource != ResourceEvents {
		t.Fatalf("got %v, want the %s budget (storm must not trip on an advancing clock)", oe, ResourceEvents)
	}
}

func TestTripPublishesOverloadEvent(t *testing.T) {
	sched := sim.NewScheduler(1)
	tickChain(sched, time.Millisecond)
	var col collector
	bus := telemetry.NewBus(&col)
	Attach(sched, Limits{MaxEvents: 10}, bus)
	sched.Run(time.Hour)
	var got *telemetry.Event
	for i := range col.events {
		if col.events[i].Kind == telemetry.KOverload {
			got = &col.events[i]
		}
	}
	if got == nil {
		t.Fatal("no overload event published")
	}
	if got.Comp != telemetry.CompGuard || got.Src != ResourceEvents {
		t.Fatalf("overload event = %+v, want comp guard, src %q", got, ResourceEvents)
	}
	if got.A != 10 || got.B != 10 {
		t.Fatalf("overload observed/limit = %g/%g, want 10/10", got.A, got.B)
	}
}

func TestUntrippedGuardDoesNotSteer(t *testing.T) {
	run := func(limits Limits) (uint64, sim.Time) {
		sched := sim.NewScheduler(7)
		var tick *sim.Timer
		fired := 0
		tick = sched.NewTimer(func() {
			fired++
			if fired < 200 {
				tick.Reset(sim.Time(sched.Rand().Intn(5) + 1))
			}
		})
		tick.Reset(1)
		mon := Attach(sched, limits, nil)
		sched.RunAll()
		if mon.Err() != nil {
			t.Fatalf("budget tripped unexpectedly: %v", mon.Err())
		}
		return sched.Processed(), sched.Now()
	}
	freeEvents, freeNow := run(Limits{})
	guardedEvents, guardedNow := run(Limits{MaxEvents: 1 << 30, StormEvents: 1 << 30})
	if freeEvents != guardedEvents || freeNow != guardedNow {
		t.Fatalf("guarded run diverged: %d events at %v vs unguarded %d at %v",
			guardedEvents, guardedNow, freeEvents, freeNow)
	}
}

func TestAttachEmptyLimitsRemovesGuard(t *testing.T) {
	sched := sim.NewScheduler(1)
	Attach(sched, Limits{MaxEvents: 1}, nil)
	mon := Attach(sched, Limits{}, nil)
	tickChain(sched, time.Millisecond)
	sched.Run(10 * time.Millisecond)
	if mon.Err() != nil || sched.Processed() != 10 {
		t.Fatalf("removed guard still tripped: %v after %d events", mon.Err(), sched.Processed())
	}
}

func TestOverloadErrorIsDegraded(t *testing.T) {
	oe := &OverloadError{Resource: ResourceEvents, Observed: 5, Limit: 5, Events: 5}
	if !oe.Degraded() {
		t.Fatal("OverloadError must carry the Degraded marker")
	}
	if msg := oe.Error(); !strings.Contains(msg, "events budget exceeded") {
		t.Fatalf("unexpected message %q", msg)
	}
}
