package tcp

// scoreboard is a SACK sender's record of the ranges the receiver has
// selectively acknowledged above SndUna: sorted by Start, disjoint, and
// never touching (adjacent ranges coalesce). SACK and FACK share it. All
// updates are in place, so a sender that has seen its deepest scoreboard
// allocates nothing more however many SACK blocks arrive.
type scoreboard []seqRange

// merge adds nb, coalescing it with every range it overlaps or touches.
func (sb *scoreboard) merge(nb seqRange) {
	if nb.End <= nb.Start {
		return
	}
	s := *sb
	// s[lo:hi] are the ranges nb absorbs; those before lo end short of
	// nb, those from hi on start beyond it.
	lo := 0
	for lo < len(s) && s[lo].End < nb.Start {
		lo++
	}
	hi := lo
	for ; hi < len(s) && s[hi].Start <= nb.End; hi++ {
		if s[hi].Start < nb.Start {
			nb.Start = s[hi].Start
		}
		if s[hi].End > nb.End {
			nb.End = s[hi].End
		}
	}
	if hi == lo {
		s = append(s, seqRange{})
		copy(s[lo+1:], s[lo:])
	} else {
		s = append(s[:lo+1], s[hi:]...)
	}
	s[lo] = nb
	*sb = s
}

// trim discards everything below cut, the cumulative acknowledgment.
func (sb *scoreboard) trim(cut int64) {
	out := (*sb)[:0]
	for _, b := range *sb {
		if b.End <= cut {
			continue
		}
		if b.Start < cut {
			b.Start = cut
		}
		out = append(out, b)
	}
	*sb = out
}

// reset empties the scoreboard, keeping its storage.
func (sb *scoreboard) reset() { *sb = (*sb)[:0] }

// sacked reports whether seq lies in an acknowledged range.
func (sb scoreboard) sacked(seq int64) bool {
	for _, b := range sb {
		if seq >= b.Start && seq < b.End {
			return true
		}
		if b.Start > seq {
			return false
		}
	}
	return false
}
