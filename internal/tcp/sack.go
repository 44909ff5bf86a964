package tcp

// SACKStrategy implements SACK TCP. Two modes are provided:
//
//   - The default reproduces the 1996 Fall & Floyd `sack1` sender the
//     paper compares against: a scoreboard of SACKed blocks plus an
//     incrementally maintained `pipe` estimate of packets in the path
//     (decremented by one per duplicate ACK, by two per partial ACK,
//     incremented per transmission). The sender may transmit whenever
//     pipe < cwnd, preferring the oldest un-SACKed hole. Because the
//     packets lost in the current window stay counted in pipe for the
//     first recovery RTT, this sender is throttled early in recovery
//     and — as the paper and Bruyeron et al. note — can be forced into
//     a timeout when too little of the window survives.
//
//   - Modern mode (NewSACKModern) derives pipe from the scoreboard as
//     RFC 6675 does, excluding segments deemed lost (DupThresh SACKed
//     segments above them), which removes the first-RTT throttling.
//
// The paper contrasts SACK's passive pipe with RR's `actnum`, which
// both measures and *controls* the in-flight data.
type SACKStrategy struct {
	modern bool

	Recovery
	pipe int // incremental estimate (classic mode only)

	scoreboard rangeSet // SACKed ranges above SndUna
	rtxDone    seqSet   // holes already retransmitted this recovery
}

var _ Strategy = (*SACKStrategy)(nil)

// NewSACK returns the classic Fall & Floyd sack1 sender — the SACK
// baseline of the paper's evaluation. The flow's Receiver must have
// SACKEnabled set.
func NewSACK() *SACKStrategy {
	return &SACKStrategy{}
}

// NewSACKModern returns the RFC 6675-style sender with the
// scoreboard-derived pipe.
func NewSACKModern() *SACKStrategy {
	return &SACKStrategy{modern: true}
}

// Reset makes k the strategy its constructor (NewSACK or
// NewSACKModern) returns, for a new connection, keeping the storage of
// its scoreboard. The retransmitted-hole set starts from its zero
// value, so it fills its own buffer again.
func (k *SACKStrategy) Reset() {
	*k = SACKStrategy{modern: k.modern, scoreboard: k.scoreboard[:0]}
}

// Name implements Strategy.
func (k *SACKStrategy) Name() string {
	if k.modern {
		return "sack6675"
	}
	return "sack"
}

// pipeFor returns the current in-flight estimate for the active mode.
func (k *SACKStrategy) pipeFor(s *Sender) int {
	if !k.modern {
		return k.pipe
	}
	// RFC 6675: segments sent but not cumulatively acked, excluding
	// SACKed segments and lost-but-not-retransmitted segments.
	mss := int64(s.MSS())
	pipe := 0
	for seq := s.SndUna(); seq < s.SndNxt(); seq += mss {
		if k.scoreboard.sacked(seq) {
			continue
		}
		if k.isLost(s, seq) && !k.rtxDone.has(seq) {
			continue
		}
		pipe++
	}
	return pipe
}

// isLost deems a segment lost once DupThresh segments above it have
// been SACKed (RFC 6675 IsLost).
func (k *SACKStrategy) isLost(s *Sender, seq int64) bool {
	mss := int64(s.MSS())
	var sackedAbove int64
	for _, b := range k.scoreboard {
		if b.End <= seq {
			continue
		}
		lo := b.Start
		if lo < seq {
			lo = seq
		}
		sackedAbove += b.End - lo
	}
	return sackedAbove >= DupThresh*mss
}

// OnAck implements Strategy. There is no re-entry guard: the
// scoreboard, not the dup-ACK count, decides what is retransmitted.
func (k *SACKStrategy) OnAck(s *Sender, ev AckEvent) {
	k.updateScoreboard(s, ev)
	switch {
	case !k.in:
		if s.OpenAck(ev) {
			k.enter(s)
		}
	case ev.IsDup:
		// Each duplicate ACK signals one departure from the path.
		k.pipe = max(k.pipe-1, 0)
		k.fill(s)
	case ev.AckNo >= k.recover:
		k.Finish(s, ev.AckNo)
	default:
		// Partial ACK: both the original transmission and its
		// retransmission have left the path.
		k.pipe = max(k.pipe-2, 0)
		s.AdvanceUna(ev.AckNo)
		if s.Done() {
			return
		}
		s.RestartTimer()
		k.fill(s)
	}
}

func (k *SACKStrategy) enter(s *Sender) {
	k.rtxDone.reset()
	flight := k.Begin(s)
	s.SetCwnd(s.Ssthresh())
	// Three duplicate ACKs mean three packets have left the path.
	k.pipe = max(flight-DupThresh, 0)
	k.retransmitHole(s, s.SndUna())
	s.RestartTimer()
	k.fill(s)
}

// fill transmits while pipe < cwnd: holes first, then new data.
func (k *SACKStrategy) fill(s *Sender) {
	for k.pipeFor(s) < int(s.Cwnd()) {
		if hole, ok := k.nextHole(s); ok {
			k.retransmitHole(s, hole)
			continue
		}
		if !s.SendNewSegment() {
			return
		}
		k.pipe++
	}
}

func (k *SACKStrategy) retransmitHole(s *Sender, seq int64) {
	k.rtxDone.add(seq)
	s.Retransmit(seq)
	k.pipe++
}

// nextHole returns the lowest sequence at or above SndUna, below the
// highest SACKed byte, that has been neither SACKed nor retransmitted
// this recovery. In modern mode a hole must also be deemed lost.
func (k *SACKStrategy) nextHole(s *Sender) (int64, bool) {
	if len(k.scoreboard) == 0 {
		return 0, false
	}
	highest := k.scoreboard[len(k.scoreboard)-1].End
	mss := int64(s.MSS())
	for seq := s.SndUna(); seq < highest; seq += mss {
		if k.rtxDone.has(seq) || k.scoreboard.sacked(seq) {
			continue
		}
		if k.modern && !k.isLost(s, seq) {
			return 0, false
		}
		return seq, true
	}
	return 0, false
}

// updateScoreboard merges the ACK's SACK blocks and discards ranges at
// or below the cumulative ACK.
func (k *SACKStrategy) updateScoreboard(s *Sender, ev AckEvent) {
	for _, b := range ev.SACK {
		k.scoreboard.merge(seqRange{Start: b.Start, End: b.End})
	}
	k.scoreboard.trim(max(ev.AckNo, s.SndUna()))
}

// OnTimeout implements Strategy.
func (k *SACKStrategy) OnTimeout(*Sender) {
	k.in = false
	k.scoreboard.reset()
	k.pipe = 0
	k.rtxDone.reset()
}
