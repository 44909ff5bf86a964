package tcp

// Reno implements 4.3BSD-Reno fast recovery: on the third duplicate
// ACK the sender retransmits the hole, halves the window, and inflates
// cwnd by one segment per additional duplicate ACK so new data keeps
// flowing; ANY new ACK — even a partial one — deflates the window and
// exits recovery. As in ns-2's default "bugfix" behavior, a second fast
// retransmit is suppressed until the cumulative ACK passes `recover`,
// so a burst of losses in one window halves cwnd once per loss and
// usually ends in a coarse timeout, the weakness the paper's Section 1
// describes.
type Reno struct {
	Recovery
}

var _ Strategy = (*Reno)(nil)

// NewReno4BSD returns the Reno strategy. (The name avoids a clash with
// the New-Reno constructor.)
func NewReno4BSD() *Reno { return &Reno{} }

// Reset makes r the strategy NewReno4BSD returns, for a new connection.
func (r *Reno) Reset() { *r = Reno{} }

// Name implements Strategy.
func (*Reno) Name() string { return "reno" }

// OnAck implements Strategy.
func (r *Reno) OnAck(s *Sender, ev AckEvent) {
	switch {
	case !r.in:
		if s.OpenAck(ev) && s.SndUna() > r.recover {
			r.enter(s)
		}
	case ev.IsDup:
		r.inflate(s)
	default:
		// Reno deflates and leaves recovery on the first new ACK,
		// partial or not.
		r.Finish(s, ev.AckNo)
	}
}

// enter retransmits the hole into a halved window inflated by the
// three segments known to have left.
func (r *Reno) enter(s *Sender) {
	r.Begin(s)
	s.SetCwnd(s.Ssthresh() + DupThresh)
	s.Retransmit(s.SndUna())
	s.RestartTimer()
}

// inflate is window inflation: each duplicate ACK signals a departure.
func (*Reno) inflate(s *Sender) {
	s.SetCwnd(s.Cwnd() + 1)
	s.PumpWindow()
}

// OnTimeout implements Strategy.
func (r *Reno) OnTimeout(s *Sender) {
	r.in = false
	r.recover = s.MaxSeq()
}
