// Package guard is the simulator's overload-robustness layer: resource
// budgets attached to a sim.Scheduler that convert runaway runs —
// event storms, frozen clocks, unbounded event counts — into a typed
// *OverloadError and a clean stop, instead of an OOM kill or a hang.
//
// The paper's evaluation scales to regimes (thousands of concurrent
// flows, adversarial fault schedules) where a single pathological run
// can take the whole sweep down with it. The guard makes "this cell
// blew its budget" a first-class, reportable outcome: the scheduler
// stops after the in-flight event, the monitor retains the typed error,
// a telemetry event records what tripped, and internal/sweep converts
// the failure into a Degraded result so the sweep completes and reports
// rather than crashing.
//
// Determinism: every budget is a function of the event sequence alone —
// the guard reads no clock and no memory statistic of the host — so a
// given seed trips at the same event on every machine. With no budget
// tripped the guard observes but never steers, so guarded and
// unguarded runs process byte-identical event sequences.
package guard

import (
	"fmt"

	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// Resource names, used as OverloadError.Resource and as the Src of the
// telemetry "overload" event.
const (
	// ResourceEvents is the processed-event-count budget.
	ResourceEvents = "events"
	// ResourceStorm is the event-storm/Zeno detector: too many events
	// processed without the simulated clock advancing.
	ResourceStorm = "event-storm"
)

// Limits is a set of resource budgets; every zero field means "no
// limit", so the zero value guards nothing.
type Limits struct {
	// MaxEvents bounds the total number of processed events.
	// Deterministic: a run trips at exactly this count.
	MaxEvents uint64
	// StormEvents is the event-storm/Zeno detector: the run trips after
	// this many consecutive events fire without the simulated clock
	// advancing (a zero-delay self-rescheduling loop would otherwise
	// spin forever, invisible to any sim-time watchdog — including
	// invariant.StartWatchdog, whose ticks are themselves sim-time
	// scheduled). Deterministic.
	StormEvents uint64
}

// Enabled reports whether any budget is set.
func (l Limits) Enabled() bool {
	return l.MaxEvents > 0 || l.StormEvents > 0
}

// OverloadError reports a tripped resource budget. It implements the
// structural Degraded marker internal/sweep looks for, so a job that
// returns (or wraps) one becomes a Degraded sweep result rather than a
// failure.
type OverloadError struct {
	// Resource names the budget that tripped (the Resource* constants).
	Resource string `json:"resource"`
	// Observed and Limit quantify the trip in events: processed events
	// for the events budget, events at a frozen clock for the storm
	// detector.
	Observed float64 `json:"observed"`
	Limit    float64 `json:"limit"`
	// At is the simulated instant of the trip; Events the processed
	// count.
	At     sim.Time `json:"atNs"`
	Events uint64   `json:"events"`
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("guard: %s budget exceeded: %g > %g (at %v, %d events)",
		e.Resource, e.Observed, e.Limit, e.At, e.Events)
}

// Degraded marks the error as a budget trip: the run degraded by
// design rather than failing. internal/sweep discovers the marker
// structurally and converts the job into a Degraded result instead of
// a sweep failure.
func (e *OverloadError) Degraded() bool { return true }

// Monitor attaches a Limits set to one scheduler via its guard hook.
// All methods run on the simulation goroutine; a monitor belongs to
// exactly one scheduler.
type Monitor struct {
	limits Limits
	bus    *telemetry.Bus
	err    *OverloadError

	// Event-storm tracking: the sim time last observed and the number of
	// consecutive events processed at it.
	lastNow  sim.Time
	stormRun uint64
}

// Attach installs a monitor on the scheduler's guard hook. A tripped
// budget stops the scheduler after the in-flight event, records the
// typed *OverloadError (retrievable via Err), and publishes a telemetry
// "overload" event on bus (which may be nil). Attaching an empty Limits
// removes any installed guard, restoring the zero-cost path.
func Attach(sched *sim.Scheduler, limits Limits, bus *telemetry.Bus) *Monitor {
	m := &Monitor{limits: limits, bus: bus}
	if !limits.Enabled() {
		sched.SetGuard(nil)
		return m
	}
	sched.SetGuard(m.check)
	return m
}

// Err returns the budget trip that stopped the run, or nil. Nil-safe.
func (m *Monitor) Err() *OverloadError {
	if m == nil {
		return nil
	}
	return m.err
}

// Tripped reports whether any budget has tripped. Nil-safe.
func (m *Monitor) Tripped() bool { return m.Err() != nil }

// check is the scheduler guard hook. The budgets (events, storm) are
// evaluated on every event, in a fixed order so simultaneous
// trips resolve identically every run. Once tripped the monitor keeps
// returning the same error, so a caller that ignores the stop and calls
// Run again stops immediately instead of burning more budget.
func (m *Monitor) check(now sim.Time, processed uint64) error {
	if m.err != nil {
		return m.err
	}
	l := m.limits
	if now == m.lastNow {
		m.stormRun++
	} else {
		m.lastNow = now
		m.stormRun = 0
	}
	switch {
	case l.MaxEvents > 0 && processed >= l.MaxEvents:
		return m.trip(ResourceEvents, float64(processed), float64(l.MaxEvents), now, processed)
	case l.StormEvents > 0 && m.stormRun >= l.StormEvents:
		return m.trip(ResourceStorm, float64(m.stormRun), float64(l.StormEvents), now, processed)
	}
	return nil
}

// trip records and publishes the budget violation.
func (m *Monitor) trip(resource string, observed, limit float64, at sim.Time, events uint64) error {
	m.err = &OverloadError{
		Resource: resource, Observed: observed, Limit: limit,
		At: at, Events: events,
	}
	m.bus.Publish(telemetry.Event{
		At:   at,
		Comp: telemetry.CompGuard,
		Kind: telemetry.KOverload,
		Src:  resource,
		Flow: telemetry.NoFlow,
		A:    observed,
		B:    limit,
	})
	return m.err
}
