package tcp

// The two related-work enhancements the paper's introduction analyzes
// and argues against. Both keep TCP aggressive around loss detection;
// the paper's criticism is that packets transmitted on the verge of a
// congestion signal "add more fuel to the fire" at the bottleneck, and
// that neither can detect further losses during recovery.

// RightEdge implements right-edge recovery (Balakrishnan et al.,
// INFOCOM'98, the paper's [1]): New-Reno fast recovery, except that one
// new data packet is clocked out for EACH duplicate ACK instead of each
// second one, keeping the right edge of the window moving to avoid
// coarse timeouts under tiny windows.
type RightEdge struct {
	Recovery
	noRetransmitBelow int64
}

var _ Strategy = (*RightEdge)(nil)

// NewRightEdge returns the right-edge recovery strategy.
func NewRightEdge() *RightEdge { return &RightEdge{} }

// Reset makes r the strategy NewRightEdge returns, for a new connection.
func (r *RightEdge) Reset() { *r = RightEdge{} }

// Name implements Strategy.
func (*RightEdge) Name() string { return "rightedge" }

// OnAck implements Strategy.
func (e *RightEdge) OnAck(s *Sender, ev AckEvent) {
	switch {
	case !e.in:
		if s.OpenAck(ev) && s.SndUna() >= e.noRetransmitBelow {
			e.Begin(s)
			s.SetCwnd(s.Ssthresh())
			s.Retransmit(s.SndUna())
			s.RestartTimer()
		}
	case ev.IsDup:
		// One new packet per duplicate ACK: the defining rule.
		s.SendNewSegment()
	case ev.AckNo >= e.recover:
		e.Finish(s, ev.AckNo)
	default:
		// Partial ACK: New-Reno-style hole retransmission.
		s.AdvanceUna(ev.AckNo)
		if s.Done() {
			return
		}
		s.Retransmit(s.SndUna())
		s.RestartTimer()
	}
}

// OnTimeout implements Strategy.
func (e *RightEdge) OnTimeout(s *Sender) {
	e.in = false
	e.noRetransmitBelow = s.MaxSeq()
}

// LinKung implements the Lin & Kung (INFOCOM'98, the paper's [12])
// refinement: a new data packet is generated upon each arrival of the
// FIRST TWO duplicate ACKs — before fast retransmit even fires — so
// TCP stays aggressive while a loss is still only suspected. Recovery
// itself proceeds as in New-Reno.
type LinKung struct {
	NewRenoStrategy
}

var _ Strategy = (*LinKung)(nil)

// NewLinKung returns the Lin-Kung strategy.
func NewLinKung() *LinKung { return &LinKung{} }

// Reset makes l the strategy NewLinKung returns, for a new connection.
func (l *LinKung) Reset() { *l = LinKung{} }

// Name implements Strategy.
func (*LinKung) Name() string { return "linkung" }

// OnAck implements Strategy.
func (l *LinKung) OnAck(s *Sender, ev AckEvent) {
	if ev.IsDup && !l.in && s.DupAcks() < DupThresh-1 {
		// First two duplicate ACKs each clock out one new packet.
		s.SendNewSegment()
	}
	l.NewRenoStrategy.OnAck(s, ev)
}
