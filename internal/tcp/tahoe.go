package tcp

import "rrtcp/internal/telemetry"

// Tahoe implements 4.3BSD-Tahoe loss recovery as modeled by ns-2: on
// the third duplicate ACK the sender halves ssthresh, collapses cwnd to
// one segment, and slow-starts again from the lost segment (go-back-N).
// There is no fast recovery; every loss costs a full slow start, but —
// as the paper observes — the go-back-N resend makes Tahoe more robust
// than New-Reno when many packets are lost from one window.
//
// As in ns-2 (its "bugfix" option, on by default), a second fast
// retransmit is suppressed until the cumulative ACK passes the highest
// sequence outstanding when the previous one fired: go-back-N resends
// of already-delivered segments produce duplicate ACKs that must not
// retrigger recovery.
type Tahoe struct {
	recover int64
}

var _ Strategy = (*Tahoe)(nil)

// NewTahoe returns the Tahoe strategy.
func NewTahoe() *Tahoe { return &Tahoe{} }

// Reset makes t the strategy NewTahoe returns, for a new connection.
func (t *Tahoe) Reset() { *t = Tahoe{} }

// Name implements Strategy.
func (*Tahoe) Name() string { return "tahoe" }

// OnAck implements Strategy.
func (t *Tahoe) OnAck(s *Sender, ev AckEvent) {
	if !ev.IsDup {
		// Not OpenAck: Tahoe advances the left edge before it grows the
		// window, the others after.
		s.SetDupAcks(0)
		s.AdvanceUna(ev.AckNo)
		if s.Done() {
			return
		}
		s.GrowWindow()
		s.PumpWindow()
		return
	}
	if !s.OpenAck(ev) || s.SndUna() <= t.recover {
		return
	}
	// Fast retransmit, Tahoe style: slow start over from the hole.
	t.recover = s.MaxSeq()
	s.Emit(telemetry.CompSender, telemetry.KRecoveryEnter, s.SndUna(), s.Cwnd(), s.Ssthresh())
	s.HalveSsthresh()
	s.SetCwnd(1)
	s.GoBackN()
	s.Retransmit(s.SndUna())
	s.RestartTimer()
}

// OnTimeout implements Strategy; the Sender's common timeout actions
// are exactly Tahoe's behavior, so only the fast-retransmit guard needs
// refreshing.
func (t *Tahoe) OnTimeout(s *Sender) { t.recover = s.MaxSeq() }
