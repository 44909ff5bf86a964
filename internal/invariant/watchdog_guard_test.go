package invariant

import (
	"testing"
	"time"

	"rrtcp/internal/guard"
	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// These tests pin down the division of labor between the two wedge
// detectors: invariant.StartWatchdog observes stalls in runs whose
// simulated clock still advances, while guard.Limits.StormEvents is the
// only detector that can end an event storm at a frozen clock (the
// watchdog's own ticks are sim-time scheduled and never fire there).
// Whichever detector applies, a run must end with exactly one typed
// degradation cause, the same one every run.

// wedgeWinner runs a wedged sender under both detectors and reports
// which typed error decided the run, using the same priority the stress
// cells apply: a guard trip explains the early stop and wins; otherwise
// a liveness stall degrades the run.
func wedgeWinner(t *testing.T, limits guard.Limits, frozenClock bool) (string, *guard.OverloadError, *StallError) {
	t.Helper()
	sched := sim.NewScheduler(1)
	bus := telemetry.NewBus()
	c := NewChecker(sched, bus)
	bus.Subscribe(c)

	// A wedged sender: active (one event observed), no forward
	// progress, retransmission timer disarmed — nothing will wake it.
	f := healthyFake()
	f.armed = false
	c.Watch(f)
	c.Emit(telemetry.Event{Comp: telemetry.CompSender, Kind: telemetry.KSend, Flow: 0})

	if err := c.StartWatchdog(10*time.Millisecond, 20*time.Millisecond, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// The wedge itself: a self-rescheduling loop that burns events
	// without ever moving the flow forward. With step 0 the clock
	// freezes and the watchdog tick can never fire.
	step := sim.Time(time.Millisecond)
	if frozenClock {
		step = 0
	}
	var spin *sim.Timer
	spin = sched.NewTimer(func() { spin.Reset(step) })
	spin.Reset(step)

	mon := guard.Attach(sched, limits, bus)
	sched.Run(sim.Time(time.Second))

	oerr := mon.Err()
	serr := c.StallError()
	switch {
	case oerr != nil:
		return oerr.Resource, oerr, serr
	case serr != nil:
		return "liveness", oerr, serr
	default:
		return "", nil, nil
	}
}

func TestFrozenClockStormOnlyGuardFires(t *testing.T) {
	winner, oerr, serr := wedgeWinner(t, guard.Limits{StormEvents: 1000}, true)
	if winner != guard.ResourceStorm {
		t.Fatalf("winner = %q, want %q", winner, guard.ResourceStorm)
	}
	if oerr == nil || oerr.At != 0 {
		t.Fatalf("storm trip = %+v, want one at the frozen clock's instant 0", oerr)
	}
	// The watchdog ticks are sim-time scheduled: at a frozen clock they
	// never ran, so the checker saw no stall — exactly one detector
	// reported.
	if serr != nil {
		t.Fatalf("watchdog reported %v during a frozen-clock storm; its ticks cannot have run", serr)
	}
}

func TestAdvancingClockWedgeWatchdogFires(t *testing.T) {
	// No event budget: the storm detector can't trip (the clock
	// advances every event) and the watchdog's hard threshold is the
	// only detector left.
	winner, oerr, serr := wedgeWinner(t, guard.Limits{StormEvents: 1 << 20}, false)
	if winner != "liveness" {
		t.Fatalf("winner = %q, want liveness", winner)
	}
	if oerr != nil {
		t.Fatalf("guard tripped %v; nothing should have exceeded its budget", oerr)
	}
	if serr == nil || (serr.V.Rule != "stall" && serr.V.Rule != "stall-no-timer") {
		t.Fatalf("stall error = %+v, want a liveness rule", serr)
	}
	if !serr.Degraded() {
		t.Fatal("StallError must carry the Degraded marker")
	}
}

func TestTightEventBudgetPreemptsWatchdog(t *testing.T) {
	// Same advancing-clock wedge, but an event budget small enough to
	// trip before the watchdog's grace elapses: the guard's typed error
	// wins and the watchdog never got to report.
	winner, oerr, serr := wedgeWinner(t, guard.Limits{MaxEvents: 10, StormEvents: 1 << 20}, false)
	if winner != guard.ResourceEvents {
		t.Fatalf("winner = %q, want %q", winner, guard.ResourceEvents)
	}
	if oerr == nil || oerr.Events != 10 {
		t.Fatalf("trip = %+v, want one at exactly event 10", oerr)
	}
	if serr != nil {
		t.Fatalf("watchdog also reported %v; the guard stopped the run first", serr)
	}
}

func TestWedgeWinnerIsDeterministic(t *testing.T) {
	cases := []struct {
		name   string
		limits guard.Limits
		frozen bool
	}{
		{"frozen-storm", guard.Limits{StormEvents: 1000}, true},
		{"advancing-stall", guard.Limits{StormEvents: 1 << 20}, false},
		{"tight-budget", guard.Limits{MaxEvents: 10, StormEvents: 1 << 20}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w1, o1, s1 := wedgeWinner(t, tc.limits, tc.frozen)
			w2, o2, s2 := wedgeWinner(t, tc.limits, tc.frozen)
			if w1 != w2 {
				t.Fatalf("winner diverged across runs: %q vs %q", w1, w2)
			}
			if (o1 == nil) != (o2 == nil) || (o1 != nil && *o1 != *o2) {
				t.Fatalf("overload errors diverged: %+v vs %+v", o1, o2)
			}
			if (s1 == nil) != (s2 == nil) || (s1 != nil && s1.V != s2.V) {
				t.Fatalf("stall errors diverged: %+v vs %+v", s1, s2)
			}
		})
	}
}
