package tcp

import "math"

// FACKStrategy implements FACK TCP (Mathis & Mahdavi, SIGCOMM'96 — the
// paper's [13]): forward acknowledgment refines SACK recovery by
// tracking `fack`, the forward-most SACKed byte. Outstanding data is
// estimated as (snd.nxt − fack) plus retransmitted-but-unacknowledged
// data, which is more accurate than Reno's cumulative-ACK view, and
// recovery triggers as soon as more than DupThresh segments' worth of
// data lies between snd.una and fack — no need to count three separate
// duplicate ACKs when one SACK block already proves the gap. The paper
// groups FACK with SACK: efficient multi-loss recovery, but requiring
// cooperative (SACK-capable) receivers.
type FACKStrategy struct {
	Recovery
	fack int64

	scoreboard rangeSet
	rtxOut     seqSet // retransmitted holes not yet acked/SACKed
}

var _ Strategy = (*FACKStrategy)(nil)

// NewFACK returns the FACK strategy. The flow's Receiver must have
// SACKEnabled set.
func NewFACK() *FACKStrategy {
	return &FACKStrategy{}
}

// Reset makes f the strategy NewFACK returns, for a new connection,
// keeping the storage of its scoreboard. The retransmitted-hole set
// starts from its zero value, so it fills its own buffer again.
func (f *FACKStrategy) Reset() {
	*f = FACKStrategy{scoreboard: f.scoreboard[:0]}
}

// Name implements Strategy.
func (f *FACKStrategy) Name() string { return "fack" }

// OnAck implements Strategy. As for SACK there is no re-entry guard.
func (f *FACKStrategy) OnAck(s *Sender, ev AckEvent) {
	f.update(s, ev)
	switch {
	case !f.in:
		// FACK trigger: the classic dup count, or the hole between una
		// and fack already spans more than DupThresh segments.
		third := s.OpenAck(ev)
		if ev.IsDup && (third || f.fack-s.SndUna() > int64(DupThresh*s.MSS())) {
			f.rtxOut.reset()
			f.Begin(s)
			s.SetCwnd(s.Ssthresh())
			f.retransmitHole(s, s.SndUna())
			s.RestartTimer()
			f.fill(s)
		}
	case ev.IsDup:
		f.fill(s)
	default:
		f.rtxOut.drop(math.MinInt64, ev.AckNo)
		if ev.AckNo >= f.recover {
			f.Finish(s, ev.AckNo)
			return
		}
		s.AdvanceUna(ev.AckNo)
		if s.Done() {
			return
		}
		s.RestartTimer()
		f.fill(s)
	}
}

// pipe is FACK's in-flight estimate: (snd.nxt − fack) plus outstanding
// retransmissions, in packets.
func (f *FACKStrategy) pipe(s *Sender) int {
	awnd := s.SndNxt() - f.fack
	if awnd < 0 {
		awnd = 0
	}
	return int(awnd/int64(s.MSS())) + f.rtxOut.len()
}

func (f *FACKStrategy) fill(s *Sender) {
	for f.pipe(s) < int(s.Cwnd()) {
		if hole, ok := f.nextHole(s); ok {
			f.retransmitHole(s, hole)
			continue
		}
		if !s.SendNewSegment() {
			return
		}
	}
}

func (f *FACKStrategy) retransmitHole(s *Sender, seq int64) {
	f.rtxOut.add(seq)
	s.Retransmit(seq)
}

// nextHole returns the lowest un-SACKed, un-retransmitted sequence
// below fack.
func (f *FACKStrategy) nextHole(s *Sender) (int64, bool) {
	mss := int64(s.MSS())
	for seq := s.SndUna(); seq < f.fack; seq += mss {
		if f.rtxOut.has(seq) || f.scoreboard.sacked(seq) {
			continue
		}
		return seq, true
	}
	return 0, false
}

// update merges SACK blocks, advances fack, and trims state below the
// cumulative ACK.
func (f *FACKStrategy) update(s *Sender, ev AckEvent) {
	for _, b := range ev.SACK {
		f.scoreboard.merge(seqRange{Start: b.Start, End: b.End})
		if b.End > f.fack {
			f.fack = b.End
		}
		f.rtxOut.drop(b.Start, b.End)
	}
	if ev.AckNo > f.fack {
		f.fack = ev.AckNo
	}
	f.scoreboard.trim(max(ev.AckNo, s.SndUna()))
}

// OnTimeout implements Strategy.
func (f *FACKStrategy) OnTimeout(s *Sender) {
	f.in = false
	f.scoreboard.reset()
	f.fack = s.SndUna()
	f.rtxOut.reset()
}
