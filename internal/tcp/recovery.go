package tcp

import "rrtcp/internal/telemetry"

// Recovery is the fast-recovery skeleton every baseline with a recovery
// phase embeds: whether the sender is in it, and the exit point — the
// highest sequence outstanding when the loss was detected. Entry and
// exit are written here once; a strategy keeps only the rule that
// distinguishes it (its re-entry guard, its window on entry, what a
// duplicate and a partial ACK do).
type Recovery struct {
	in      bool
	recover int64
}

// InRecovery reports whether fast recovery is active.
func (r *Recovery) InRecovery() bool { return r.in }

// Recover exposes the recovery exit threshold.
func (r *Recovery) Recover() int64 { return r.recover }

// Begin enters recovery: mark it, record the exit point, announce it
// (with the window and threshold the loss found) and halve ssthresh. It
// returns the flight the halving used.
func (r *Recovery) Begin(s *Sender) int {
	r.in = true
	r.recover = s.MaxSeq()
	s.Emit(telemetry.CompSender, telemetry.KRecoveryEnter, s.SndUna(), s.Cwnd(), s.Ssthresh())
	return s.HalveSsthresh()
}

// Finish leaves recovery on the new ACK ackNo — the one that covers the
// exit point, or for Reno any: deflate the window to ssthresh, announce
// it, and resume normal transmission from ackNo.
func (r *Recovery) Finish(s *Sender, ackNo int64) {
	r.in = false
	s.SetDupAcks(0)
	s.SetCwnd(s.Ssthresh())
	s.Emit(telemetry.CompSender, telemetry.KRecoveryExit, ackNo, s.Cwnd(), 0)
	s.AckNew(ackNo)
}

// OpenAck handles an ACK outside recovery — slow start / congestion
// avoidance on new data, the duplicate count otherwise — and reports
// whether this was the DupThresh-th duplicate, the fast-retransmit
// trigger. Whether to act on it is the strategy's rule.
func (s *Sender) OpenAck(ev AckEvent) bool {
	if ev.IsDup {
		s.dupAcks++
		return s.dupAcks == DupThresh
	}
	s.dupAcks = 0
	s.GrowWindow()
	s.AckNew(ev.AckNo)
	return false
}

// AckNew advances the left edge to ackNo and sends what the window then
// allows (nothing, once the transfer is done).
func (s *Sender) AckNew(ackNo int64) {
	s.AdvanceUna(ackNo)
	if !s.done {
		s.PumpWindow()
	}
}

// HalveSsthresh sets ssthresh to half the packets in flight, counting
// at least two, and returns that flight.
func (s *Sender) HalveSsthresh() int {
	flight := max(s.FlightPackets(), 2)
	s.SetSsthresh(float64(flight) / 2)
	return flight
}
