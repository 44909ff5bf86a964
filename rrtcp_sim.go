// Simulation-engine surface of the rrtcp facade: the deterministic
// scheduler, simulated time, and the reusable-timer scheduling API.
//
// Timer is the scheduling primitive the facade exports: an event that
// may be stopped or re-armed while pending. The engine has a second one,
// the lane (internal/sim.Lane, docs/SIMULATOR.md "Timers and lanes"): a
// FIFO source whose events always fire, of which only the head occupies
// the event queue. A world's links share one lane per distinct delay
// they push with, eight on a dumbbell whatever its size; code built on
// the facade gets them with every NewDumbbell and schedules its own work
// with timers.
package rrtcp

import (
	"rrtcp/internal/sim"
)

// --- simulation engine ---

// Scheduler is the deterministic discrete-event engine driving a run.
type Scheduler = sim.Scheduler

// Time is a simulated instant (an offset from the simulation epoch).
type Time = sim.Time

// NewScheduler returns an engine with the clock at zero and all
// randomness derived from seed.
func NewScheduler(seed int64) *Scheduler { return sim.NewScheduler(seed) }

// Timer is a restartable one-shot timer bound to a scheduler — the way
// to schedule work. Create one per long-lived event source with
// Scheduler.NewTimer(handler) and re-arm it with Timer.At/Reset; arming
// allocates nothing.
type Timer = sim.Timer

// ErrScheduleInPast is returned when an event (or timer) is armed
// before the current simulated time.
var ErrScheduleInPast = sim.ErrScheduleInPast

// SimCounters reports the process-wide simulator totals: discrete
// events processed and packets transmitted across every scheduler.
// Schedulers add to them in batches, so the totals are exact for every
// scheduler whose Run has returned and lag a running one by at most
// 4096 events' worth.
func SimCounters() (events, packets uint64) { return sim.GlobalCounters() }
