package tcp

// NewRenoStrategy implements the modified fast recovery of Hoe / RFC
// 2582: Reno's entry and window inflation, but a partial ACK
// retransmits the next hole immediately and keeps the sender in fast
// recovery (with partial window deflation) until the ACK passes
// `recover`, the highest sequence outstanding when the first loss was
// detected. It recovers one loss per RTT and — per the paper — sends
// roughly one new packet per two duplicate ACKs, exponentially
// shrinking the transfer rate for the whole recovery period.
type NewRenoStrategy struct {
	Reno
	// noRetransmitBelow guards against multiple cwnd cuts for one
	// window of losses after a timeout (RFC 2582 "avoiding multiple
	// fast retransmits" heuristic).
	noRetransmitBelow int64
}

var _ Strategy = (*NewRenoStrategy)(nil)

// NewNewReno returns the New-Reno strategy.
func NewNewReno() *NewRenoStrategy { return &NewRenoStrategy{} }

// Reset makes n the strategy NewNewReno returns, for a new connection.
func (n *NewRenoStrategy) Reset() { *n = NewRenoStrategy{} }

// Name implements Strategy.
func (*NewRenoStrategy) Name() string { return "newreno" }

// OnAck implements Strategy.
func (n *NewRenoStrategy) OnAck(s *Sender, ev AckEvent) {
	switch {
	case !n.in:
		if s.OpenAck(ev) && s.SndUna() >= n.noRetransmitBelow {
			n.enter(s)
		}
	case ev.IsDup:
		n.inflate(s)
	case ev.AckNo >= n.recover:
		// Full ACK: deflate and exit.
		n.Finish(s, ev.AckNo)
	default:
		// Partial ACK: retransmit the next hole without leaving
		// recovery, and apply partial window deflation (deflate by the
		// amount of new data acknowledged, then add back one segment).
		ackedPkts := float64(ev.AckNo-s.SndUna()) / float64(s.MSS())
		s.AdvanceUna(ev.AckNo)
		if s.Done() {
			return
		}
		s.SetCwnd(s.Cwnd() - ackedPkts + 1) // SetCwnd floors at one segment
		s.Retransmit(ev.AckNo)
		s.RestartTimer()
		s.PumpWindow()
	}
}

// OnTimeout implements Strategy.
func (n *NewRenoStrategy) OnTimeout(s *Sender) {
	n.in = false
	// After a timeout, suppress fast retransmit until the whole
	// pre-timeout window is acknowledged.
	n.noRetransmitBelow = s.MaxSeq()
}
