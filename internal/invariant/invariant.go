// Package invariant is a runtime checker for the TCP and Robust
// Recovery state machines: it subscribes to the telemetry bus and,
// after every event of a watched flow, asserts structural invariants
// over the live sender state — sequence-number ordering, cwnd/ssthresh
// bounds, timer-backoff discipline, actnum bounds in the RR phases —
// plus a scheduled liveness watchdog that catches wedged senders.
//
// The checker is the verification half of the chaos subsystem
// (internal/faults provides the adversarial half): a fault schedule is
// only a useful test if something is watching for the sender ending up
// in an impossible state. On violation the checker records a typed
// Violation, publishes a telemetry event (kind "violation"), and
// invokes an optional callback; internal/experiments turns that into a
// replayable repro bundle.
package invariant

import (
	"fmt"
	"time"

	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
)

// Probe is the sender state surface the checker reads. *tcp.Sender
// implements it; the indirection keeps the rules testable against
// synthetic states.
type Probe interface {
	Flow() int
	Done() bool
	SndUna() int64
	SndNxt() int64
	MaxSeq() int64
	Cwnd() float64
	Ssthresh() float64
	Window() int
	FlightPackets() int
	TotalBytes() int64
	RTOBackoff() uint
	TimerArmed() bool
}

var _ Probe = (*tcp.Sender)(nil)

// RecoveryProbe is the additional surface of recovery strategies that
// expose their sub-phase state; *core.RRStrategy implements it. The
// checker applies the RR-specific rules only when it is available.
type RecoveryProbe interface {
	InRecovery() bool
	Actnum() int
}

// Violation is one detected invariant breach.
type Violation struct {
	// At is the simulated instant of detection.
	At sim.Time `json:"at"`
	// Flow is the connection the violated state belongs to.
	Flow int `json:"flow"`
	// Rule names the invariant (stable identifiers, see the catalog in
	// docs/ROBUSTNESS.md).
	Rule string `json:"rule"`
	// Detail is a human-readable account of the violated state.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%v flow %d: %s: %s", v.At, v.Flow, v.Rule, v.Detail)
}

// maxViolations bounds retention so a persistently broken sender can't
// grow the slice without bound; each (flow, rule) pair reports once
// anyway.
const maxViolations = 256

// flowState is the checker's per-flow memory.
type flowState struct {
	probe Probe
	rec   RecoveryProbe // nil for variants without sub-phase state

	active       bool
	lastUna      int64
	lastBackoff  uint
	enterCwnd    float64  // cwnd recorded at recovery entry
	timeoutAt    sim.Time // instant of the most recent timeout event
	sawTimeout   bool
	lastProgress sim.Time
	inRecovery   bool // tracked from recovery enter/exit/timeout events
	lossEpisode  bool // dup ACKs or recovery seen; flight may overshoot
}

// Checker subscribes to a telemetry bus and validates watched senders
// after every event of theirs. All methods run on the simulation
// goroutine.
type Checker struct {
	sched *sim.Scheduler
	bus   *telemetry.Bus

	flows map[int32]*flowState
	order []int32         // flows in Watch order, for deterministic scans
	seen  map[string]bool // "flow/rule" pairs already reported

	violations []Violation

	// OnViolation, when non-nil, runs synchronously for each new
	// violation (after recording and publishing it).
	OnViolation func(Violation)
}

var _ telemetry.Sink = (*Checker)(nil)

// NewChecker builds a checker that publishes violations back onto bus.
// The caller subscribes it: bus.Subscribe(c).
func NewChecker(sched *sim.Scheduler, bus *telemetry.Bus) *Checker {
	return &Checker{
		sched: sched,
		bus:   bus,
		flows: make(map[int32]*flowState),
		seen:  make(map[string]bool),
	}
}

// Watch registers a sender-state probe. An optional RecoveryProbe can
// be attached with WatchRecovery.
func (c *Checker) Watch(p Probe) {
	flow := int32(p.Flow())
	if _, ok := c.flows[flow]; !ok {
		c.order = append(c.order, flow)
	}
	c.flows[flow] = &flowState{probe: p}
}

// WatchRecovery attaches recovery sub-phase state to an already-watched
// flow.
func (c *Checker) WatchRecovery(flow int, rp RecoveryProbe) {
	if st, ok := c.flows[int32(flow)]; ok {
		st.rec = rp
	}
}

// WatchSender registers a *tcp.Sender, discovering its RecoveryProbe
// (the RR strategy) automatically.
func (c *Checker) WatchSender(s *tcp.Sender) {
	c.Watch(s)
	if rp, ok := s.Strategy().(RecoveryProbe); ok {
		c.WatchRecovery(s.Flow(), rp)
	}
}

// Violations returns the recorded breaches in detection order.
func (c *Checker) Violations() []Violation { return c.violations }

// StallError is the typed error form of a liveness violation, carrying
// the structural Degraded marker so a job that returns one becomes a
// Degraded sweep result (like a guard.OverloadError) instead of a
// failure: a wedged flow at hostile scale is a reportable outcome, not
// a reason to fail the whole sweep.
type StallError struct {
	// V is the first liveness ("stall" / "stall-no-timer") violation the
	// watchdog recorded.
	V Violation
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("invariant: liveness violation: %s", e.V)
}

// Degraded marks the error for internal/sweep's structural taxonomy.
func (e *StallError) Degraded() bool { return true }

// StallError returns the first recorded liveness violation as a typed
// *StallError, or nil when the watchdog saw none. Structural (safety)
// violations are deliberately excluded: those mean the state machine is
// wrong and must fail the run, while a stall means the run wedged and
// should degrade.
func (c *Checker) StallError() *StallError {
	for _, v := range c.violations {
		if v.Rule == "stall" || v.Rule == "stall-no-timer" {
			return &StallError{V: v}
		}
	}
	return nil
}

// Emit implements telemetry.Sink: every event of a watched flow
// triggers a full state check for that flow.
func (c *Checker) Emit(ev telemetry.Event) {
	if ev.Comp == telemetry.CompInvariant {
		return // our own violation events
	}
	st, ok := c.flows[ev.Flow]
	if !ok {
		return
	}
	if !st.active {
		st.active = true
		st.lastUna = st.probe.SndUna()
		st.lastProgress = ev.At
	}
	switch ev.Kind {
	case telemetry.KTimeout:
		st.sawTimeout = true
		st.timeoutAt = ev.At
		st.inRecovery = false
	case telemetry.KRecoveryEnter:
		st.enterCwnd = st.probe.Cwnd()
		st.inRecovery = true
		st.lossEpisode = true
	case telemetry.KRecoveryExit:
		st.inRecovery = false
	case telemetry.KDupAck:
		st.lossEpisode = true
	case telemetry.KRetransmit:
		c.checkRetransmit(st, ev)
	}
	c.checkState(st, ev)
}

// report records one violation, deduplicated per (flow, rule).
func (c *Checker) report(flow int32, rule, format string, args ...any) {
	key := fmt.Sprintf("%d/%s", flow, rule)
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	v := Violation{
		At:     c.sched.Now(),
		Flow:   int(flow),
		Rule:   rule,
		Detail: fmt.Sprintf(format, args...),
	}
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, v)
	}
	c.bus.Publish(telemetry.Event{
		At:   v.At,
		Comp: telemetry.CompInvariant,
		Kind: telemetry.KViolation,
		Src:  rule,
		Flow: flow,
	})
	if c.OnViolation != nil {
		c.OnViolation(v)
	}
}

// checkRetransmit validates a retransmission event against the sender's
// sequence state.
func (c *Checker) checkRetransmit(st *flowState, ev telemetry.Event) {
	flow := ev.Flow
	if ev.Seq < st.probe.SndUna() {
		c.report(flow, "rtx-below-una",
			"retransmitted seq %d below snd.una %d (already acknowledged)", ev.Seq, st.probe.SndUna())
	}
	if ev.Seq >= st.probe.MaxSeq() {
		c.report(flow, "rtx-unsent",
			"retransmitted seq %d at or beyond max sent seq %d", ev.Seq, st.probe.MaxSeq())
	}
}

// checkState runs the full structural rule set against the flow's
// current sender state.
func (c *Checker) checkState(st *flowState, ev telemetry.Event) {
	p := st.probe
	flow := ev.Flow
	una, nxt, max := p.SndUna(), p.SndNxt(), p.MaxSeq()

	// Sequence-number geometry: 0 <= una <= nxt <= max, una monotone,
	// and a bounded transfer never fabricates data past its size.
	if una < 0 || una > nxt || nxt > max {
		c.report(flow, "seq-order", "snd.una %d, snd.nxt %d, max %d out of order", una, nxt, max)
	}
	if una < st.lastUna {
		c.report(flow, "una-regress", "snd.una moved backwards: %d -> %d", st.lastUna, una)
	}
	progressed := una > st.lastUna
	if progressed {
		st.lastUna = una
		st.lastProgress = ev.At
	}
	if total := p.TotalBytes(); total != tcp.Infinite && max > total {
		c.report(flow, "seq-overrun", "max sent seq %d beyond transfer size %d", max, total)
	}

	// Window geometry. SetCwnd/SetSsthresh clamp, so a violation here
	// means a strategy bypassed the guarded mutators.
	if cwnd := p.Cwnd(); cwnd < 1 || cwnd > float64(p.Window()) {
		c.report(flow, "cwnd-bounds", "cwnd %g outside [1, %d]", cwnd, p.Window())
	}
	if ss := p.Ssthresh(); ss < 2 {
		c.report(flow, "ssthresh-floor", "ssthresh %g below floor 2", ss)
	}
	// Flight geometry. The advertised window bounds new data in the open
	// state; self-metered recovery (RR probe, right-edge, Lin-Kung) may
	// overshoot it by the dup-ACK clock, so during a loss episode — dup
	// ACKs seen and flight not yet drained back under the window — only
	// the sender's hard 2×Window sanity bound applies.
	fl, w := p.FlightPackets(), p.Window()
	if fl < 0 || fl > 2*w {
		c.report(flow, "flight-bounds", "%d packets in flight outside [0, %d]", fl, 2*w)
	} else if fl > w && !st.lossEpisode {
		c.report(flow, "flight-window",
			"%d packets in flight beyond the advertised window %d outside a loss episode", fl, w)
	}
	// A loss episode ends on forward progress — a fresh cumulative ACK —
	// with flight back inside the window and no recovery in progress.
	// Clearing on anything weaker would re-arm the strict bound between
	// the dup ACK and the self-metered send it clocks out.
	if progressed && fl <= w && !st.inRecovery {
		st.lossEpisode = false
	}

	// Timer discipline: exponential backoff may only grow in response
	// to a timeout (observed at the same instant — the sender emits the
	// timeout event before incrementing), and is capped at 2^6.
	if bo := p.RTOBackoff(); bo > st.lastBackoff {
		if !st.sawTimeout || st.timeoutAt != ev.At {
			c.report(flow, "backoff-no-timeout",
				"RTO backoff grew %d -> %d with no timeout at %v", st.lastBackoff, bo, ev.At)
		}
		if bo > 6 {
			c.report(flow, "backoff-cap", "RTO backoff %d beyond cap 6", bo)
		}
	}
	st.lastBackoff = p.RTOBackoff()

	if st.rec != nil {
		c.checkRecovery(st, ev)
	}
}

// checkRecovery applies the RR-specific rules.
func (c *Checker) checkRecovery(st *flowState, ev telemetry.Event) {
	p, r := st.probe, st.rec
	flow := ev.Flow
	an := r.Actnum()

	if an < 0 || an > p.Window() {
		c.report(flow, "actnum-bounds", "actnum %d outside [0, %d]", an, p.Window())
	}
	switch {
	case r.InRecovery():
		// Back-off (any cwnd change below the recovery-entry value) may
		// happen only through the recovery machinery: in recovery cwnd
		// is out of the control loop and must hold its entry value — or
		// 1, the timeout path, which emits its cwnd collapse before the
		// strategy's OnTimeout observes it.
		if cw := p.Cwnd(); st.enterCwnd > 0 && cw != st.enterCwnd && cw != 1 {
			c.report(flow, "recovery-cwnd-touched",
				"cwnd changed to %g during recovery (entered at %g)", cw, st.enterCwnd)
		}
	case ev.Kind == telemetry.KRecoveryExit || ev.Kind == telemetry.KTimeout:
		// The exit event is emitted between leaving the phase and
		// clearing actnum; a timeout resets phase before its own emit
		// sequence completes. Both instants legitimately show stale
		// actnum.
	default:
		if an != 0 {
			c.report(flow, "actnum-open", "actnum %d nonzero outside recovery", an)
		}
	}
}

// StartWatchdog schedules a periodic liveness scan: every interval it
// checks each active, unfinished flow and reports
//
//   - "stall-no-timer" when the flow made no progress for grace and its
//     retransmission timer is not armed — nothing can ever wake it, a
//     deadlock;
//   - "stall" when no progress happened for hard, timer or not — the
//     horizon for pathological-but-armed loops. hard should comfortably
//     exceed the maximum backed-off RTO (64 s) plus the longest
//     injected outage, or legitimate recovery reads as a hang.
//
// Zero parameters select the defaults (500 ms, 5 s, 300 s); negative
// ones are an error.
//
// The ticks are sim-time scheduled, so the watchdog only observes
// stalls in runs whose clock still advances. An event storm at a frozen
// clock (a zero-delay self-rescheduling loop) never reaches the next
// tick; guard.Limits.StormEvents is the complementary detector for that
// regime.
func (c *Checker) StartWatchdog(interval, grace, hard sim.Time) error {
	if interval < 0 || grace < 0 || hard < 0 {
		return fmt.Errorf("invariant: watchdog periods must be non-negative, got %v/%v/%v", interval, grace, hard)
	}
	if interval == 0 {
		interval = 500 * time.Millisecond
	}
	if grace == 0 {
		grace = 5 * time.Second
	}
	if hard == 0 {
		hard = 300 * time.Second
	}
	var timer *sim.Timer
	tick := func() {
		now := c.sched.Now()
		for _, flow := range c.order {
			st := c.flows[flow]
			if !st.active || st.probe.Done() {
				continue
			}
			idle := now - st.lastProgress
			if idle > grace && !st.probe.TimerArmed() {
				c.report(flow, "stall-no-timer",
					"no progress for %v and no retransmission timer armed (una=%d, flight=%d)",
					idle, st.probe.SndUna(), st.probe.FlightPackets())
			}
			if idle > hard {
				c.report(flow, "stall", "no progress for %v (una=%d)", idle, st.probe.SndUna())
			}
		}
		timer.Reset(interval)
	}
	timer = c.sched.NewTimer(tick)
	return timer.At(c.sched.Now() + interval)
}
