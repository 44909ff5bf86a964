package tcp

// seqRange is the byte range [Start, End).
type seqRange struct {
	Start int64
	End   int64
}

// rangeSet is a set of sequence ranges: sorted by Start, disjoint, and
// never touching (adjacent ranges coalesce). It is a SACK or FACK
// sender's scoreboard — what the receiver has selectively acknowledged
// above SndUna — and the receiver's out-of-order buffer. All updates
// are in place, so a set that has been as deep as it gets allocates
// nothing more however many ranges arrive.
type rangeSet []seqRange

// merge adds nb, coalescing it with every range it overlaps or touches,
// and returns the range nb became (covering all it absorbed).
func (sb *rangeSet) merge(nb seqRange) seqRange {
	if nb.End <= nb.Start {
		return nb
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
		nb.Start = min(nb.Start, s[hi].Start)
		nb.End = max(nb.End, s[hi].End)
	}
	if hi == lo {
		s = append(s, seqRange{})
		copy(s[lo+1:], s[lo:])
	} else {
		s = append(s[:lo+1], s[hi:]...)
	}
	s[lo] = nb
	*sb = s
	return nb
}

// trim discards everything below cut, the cumulative acknowledgment.
func (sb *rangeSet) trim(cut int64) {
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

// reset empties the set, keeping its storage.
func (sb *rangeSet) reset() { *sb = (*sb)[:0] }

// sacked reports whether seq lies in an acknowledged range.
func (sb rangeSet) sacked(seq int64) bool {
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
