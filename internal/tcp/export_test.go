package tcp

// Views of unexported state for this package's external tests.

// OutOfOrder reports how many out-of-order ranges r buffers.
func OutOfOrder(r *Receiver) int { return len(r.blocks) }

// DelayingAck reports whether r withholds an ACK on its delayed-ACK
// timer.
func DelayingAck(r *Receiver) bool { return r.ackTimer != nil && r.ackTimer.Armed() }

// RetransmittedHoles reports how many holes a SACK or FACK strategy has
// retransmitted in its current recovery; 0 for any other strategy.
func RetransmittedHoles(s Strategy) int {
	switch k := s.(type) {
	case *SACKStrategy:
		return k.rtxDone.len()
	case *FACKStrategy:
		return k.rtxOut.len()
	}
	return 0
}
