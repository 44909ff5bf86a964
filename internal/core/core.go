// Package core implements Robust Recovery (RR), the TCP
// congestion-recovery algorithm of Wang & Shin, "Robust TCP Congestion
// Recovery" (ICDCS 2001) — the paper's primary contribution.
//
// RR is a sender-side-only modification. It treats a burst of losses
// within one window as a single congestion signal, splitting recovery
// into two sub-phases:
//
//   - retreat: the first RTT of recovery. The sender exponentially
//     backs off, injecting one new packet per two duplicate ACKs, while
//     cwnd is left untouched (it is not used for control during
//     recovery). actnum stays 0.
//
//   - probe: every subsequent RTT, delimited by partial ACKs. The
//     state variable actnum — the number of new packets sent in the
//     previous RTT, hence an accurate measure of data in flight —
//     takes over congestion control. Each duplicate ACK clocks out one
//     new packet; each partial ACK retransmits the next hole and, by
//     comparing ndup (new packets confirmed this RTT) against actnum,
//     detects further losses without another fast retransmit or a
//     timeout: on no loss actnum grows by one (congestion-avoidance-
//     like), on further loss actnum shrinks linearly to ndup and the
//     recovery exit point advances to snd.nxt.
//
// Recovery ends when the cumulative ACK passes the exit point; the
// hand-off sets cwnd = actnum × MSS, so the exit ACK clocks out exactly
// one new packet and the "big ACK" burst of New-Reno/SACK never forms.
package core

import (
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
)

// phase tracks where the sender is in the RR state machine.
type phase int

const (
	phaseNone phase = iota + 1
	phaseRetreat
	phaseProbe
)

// Options expose the design choices DESIGN.md calls out for ablation.
// The zero value (via NewRR) is the algorithm as published.
type Options struct {
	// RetreatDupsPerSegment is how many duplicate ACKs clock out one
	// new segment during the retreat sub-phase. The paper uses 2
	// (halving the rate); 1 reproduces "right-edge recovery".
	RetreatDupsPerSegment int `json:"retreatDupsPerSegment,omitempty"`
	// DisableFurtherLossDetection skips the ndup/actnum comparison,
	// degrading RR to New-Reno-style blindness inside recovery.
	DisableFurtherLossDetection bool `json:"disableFurtherLossDetection,omitempty"`
	// HalveOnFurtherLoss backs off multiplicatively (actnum/2) instead
	// of the paper's linear reduction to ndup.
	HalveOnFurtherLoss bool `json:"halveOnFurtherLoss,omitempty"`
	// ExitToSsthresh hands cwnd = ssthresh back at exit (the New-Reno
	// rule) instead of the paper's cwnd = actnum×MSS, reintroducing the
	// big-ACK burst.
	ExitToSsthresh bool `json:"exitToSsthresh,omitempty"`
}

func (o *Options) fillDefaults() {
	if o.RetreatDupsPerSegment <= 0 {
		o.RetreatDupsPerSegment = 2
	}
}

// RRStrategy is the Robust Recovery state machine. It plugs into
// tcp.Sender through the tcp.Strategy interface; no receiver support
// (SACK or otherwise) is required.
type RRStrategy struct {
	opts Options

	phase       phase
	recover     int64 // recovery exit threshold (advances on further loss)
	actnum      int   // packets in flight during the probe sub-phase
	ndup        int   // duplicate ACKs received in the current recovery RTT
	retreatSent int   // new packets injected during the retreat sub-phase

	// noRetransmitBelow suppresses a spurious re-entry right after a
	// timeout, as in New-Reno.
	noRetransmitBelow int64

	// FurtherLosses counts further-loss detections (for tests/traces).
	FurtherLosses uint64
}

var _ tcp.Strategy = (*RRStrategy)(nil)

// NewRR returns the algorithm exactly as published.
func NewRR() *RRStrategy { return NewRRWithOptions(Options{}) }

// NewRRWithOptions returns RR with ablation knobs applied.
func NewRRWithOptions(opts Options) *RRStrategy {
	opts.fillDefaults()
	return &RRStrategy{opts: opts, phase: phaseNone}
}

// Reset makes r the strategy NewRRWithOptions returns for the options r
// was built with, for a new connection.
func (r *RRStrategy) Reset() { *r = RRStrategy{opts: r.opts, phase: phaseNone} }

// Name implements tcp.Strategy.
func (r *RRStrategy) Name() string { return "rr" }

// InRecovery reports whether the sender is inside RR (for tests).
func (r *RRStrategy) InRecovery() bool { return r.phase != phaseNone }

// Actnum exposes the in-flight measure (for tests).
func (r *RRStrategy) Actnum() int { return r.actnum }

// Ndup exposes the per-RTT duplicate-ACK count (for tests).
func (r *RRStrategy) Ndup() int { return r.ndup }

// Recover exposes the recovery exit threshold (for tests).
func (r *RRStrategy) Recover() int64 { return r.recover }

// OnAck implements tcp.Strategy.
func (r *RRStrategy) OnAck(s *tcp.Sender, ev tcp.AckEvent) {
	switch r.phase {
	case phaseRetreat:
		r.onAckRetreat(s, ev)
	case phaseProbe:
		r.onAckProbe(s, ev)
	default:
		// Outside recovery: standard slow start / congestion avoidance,
		// entering RR on the third duplicate ACK.
		if s.OpenAck(ev) && s.SndUna() >= r.noRetransmitBelow {
			r.enter(s)
		}
	}
}

// enter is the transient entrance state (Figure 2): record the exit
// threshold, halve ssthresh, retransmit the first lost packet, and
// begin the retreat sub-phase. cwnd is deliberately left unchanged —
// it is out of the control loop until exit.
func (r *RRStrategy) enter(s *tcp.Sender) {
	r.phase = phaseRetreat
	r.recover = s.MaxSeq()
	r.actnum = 0
	// Figure 2 starts the dup-ACK count at the first duplicate ACK, so
	// the three that triggered fast retransmit are already in ndup.
	r.ndup = s.DupAcks()
	r.retreatSent = 0
	s.HalveSsthresh()
	// enter-recovery marks the start of the retreat sub-phase; cwnd is
	// reported untouched — it is out of the control loop until exit —
	// and ssthresh already halved (tcp.Recovery.Begin, the baselines'
	// entry, reports the threshold the loss found).
	s.Emit(telemetry.CompRR, telemetry.KRecoveryEnter, s.SndUna(), s.Cwnd(), s.Ssthresh())
	s.Retransmit(s.SndUna())
	s.RestartTimer()
}

// onAckRetreat covers the first RTT of recovery: one new packet per
// RetreatDupsPerSegment duplicate ACKs; the first non-duplicate ACK
// ends the sub-phase.
func (r *RRStrategy) onAckRetreat(s *tcp.Sender, ev tcp.AckEvent) {
	if ev.IsDup {
		r.ndup++
		if r.ndup%r.opts.RetreatDupsPerSegment == 0 && s.SendNewSegment() {
			r.retreatSent++
		}
		return
	}
	// First non-duplicate ACK: actnum picks up the number of new
	// packets sent during retreat (ndup × 1/2 in the paper's terms) and
	// takes over congestion control.
	r.actnum = r.retreatSent
	if r.actnum < 1 {
		r.actnum = 1
	}
	if ev.AckNo >= r.recover {
		// Only a single packet was lost: recovery is already over.
		r.exit(s, ev.AckNo)
		return
	}
	// First partial ACK: retreat → probe.
	r.phase = phaseProbe
	r.ndup = 0
	s.Emit(telemetry.CompRR, telemetry.KRetreatProbe, ev.AckNo, float64(r.actnum), 0)
	s.AdvanceUna(ev.AckNo)
	if s.Done() {
		return
	}
	s.Retransmit(s.SndUna())
	s.RestartTimer()
}

// onAckProbe covers every later recovery RTT, delimited by partial ACKs.
func (r *RRStrategy) onAckProbe(s *tcp.Sender, ev tcp.AckEvent) {
	if ev.IsDup {
		// Each duplicate ACK confirms one new packet from the previous
		// RTT and clocks out one new packet, keeping actnum in flight.
		r.ndup++
		s.SendNewSegment()
		return
	}
	if ev.AckNo >= r.recover {
		r.exit(s, ev.AckNo)
		return
	}
	// Partial ACK: an RTT boundary. Detect further losses by comparing
	// the packets confirmed this RTT (ndup) with the packets sent last
	// RTT (actnum).
	grow := true
	if !r.opts.DisableFurtherLossDetection && r.ndup < r.actnum {
		r.FurtherLosses++
		s.Emit(telemetry.CompRR, telemetry.KFurtherLoss, ev.AckNo, float64(r.actnum), float64(r.ndup))
		if r.opts.HalveOnFurtherLoss {
			r.actnum /= 2
		} else {
			r.actnum = r.ndup // linear back-off by the number of losses
		}
		// Extend the exit point so the further losses are recovered
		// inside this same recovery phase.
		r.recover = s.SndNxt()
		grow = false
	}
	s.AdvanceUna(ev.AckNo)
	if s.Done() {
		return
	}
	s.Retransmit(s.SndUna())
	s.RestartTimer()
	if grow {
		// No further loss: linear growth, one extra packet per RTT,
		// mirroring congestion avoidance.
		r.actnum++
		s.SendNewSegment()
	}
	// One actnum/ndup sample per recovery RTT, after the grow/shrink
	// decision — the state evolution behind the paper's Figure 3.
	s.Emit(telemetry.CompRR, telemetry.KActnum, ev.AckNo, float64(r.actnum), float64(r.ndup))
	r.ndup = 0
}

// exit is the transient exit state: hand congestion control back to
// cwnd sized to the measured in-flight data, so the exit ACK clocks out
// one packet and no burst forms.
func (r *RRStrategy) exit(s *tcp.Sender, ackNo int64) {
	r.phase = phaseNone
	cw := float64(r.actnum) // SetCwnd floors it at one packet
	// Recovery state is cleared before any Sender call below can emit:
	// once phase is none, an observer (the invariant checker) must never
	// see a stale actnum.
	r.actnum = 0
	r.ndup = 0
	if r.opts.ExitToSsthresh {
		s.SetCwnd(s.Ssthresh())
	} else {
		s.SetCwnd(cw)
	}
	// Seamless exit: cwnd = actnum × MSS hands control back with no
	// big-ACK burst.
	s.Emit(telemetry.CompRR, telemetry.KRecoveryExit, ackNo, s.Cwnd(), 0)
	s.SetDupAcks(0)
	s.AckNew(ackNo)
}

// OnTimeout implements tcp.Strategy: a retransmission loss inside
// recovery is handled by the coarse timeout, as the paper specifies.
func (r *RRStrategy) OnTimeout(s *tcp.Sender) {
	r.phase = phaseNone
	r.actnum = 0
	r.ndup = 0
	r.noRetransmitBelow = s.MaxSeq()
}
