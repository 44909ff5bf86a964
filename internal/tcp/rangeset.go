package tcp

import "slices"

// setDepth is the room a scoreboard, out-of-order buffer or
// retransmission set gets when it first needs any: deep enough for the
// loss bursts the paper's scenarios produce, so a set is allocated once
// rather than grown 1, 2, 4, 8.
const setDepth = 8

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
		if cap(s) == 0 {
			s = make(rangeSet, 0, setDepth)
		}
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

// seqSet is a sorted set of segment start sequences: the holes a SACK
// or FACK sender has retransmitted in the current recovery. Its first
// setDepth members live in the set itself, so a recovery that
// retransmits no more than that allocates nothing; like rangeSet it is
// updated in place. The zero value is empty and ready; a set must not
// be copied once used.
type seqSet struct {
	seqs []int64 // sorted; backed by buf until it outgrows it
	buf  [setDepth]int64
}

// len reports how many sequences the set holds.
func (ss *seqSet) len() int { return len(ss.seqs) }

// has reports whether seq is in the set.
func (ss *seqSet) has(seq int64) bool {
	_, ok := slices.BinarySearch(ss.seqs, seq)
	return ok
}

// add puts seq in the set.
func (ss *seqSet) add(seq int64) {
	i, ok := slices.BinarySearch(ss.seqs, seq)
	if ok {
		return
	}
	if ss.seqs == nil {
		ss.seqs = ss.buf[:0]
	}
	ss.seqs = slices.Insert(ss.seqs, i, seq)
}

// drop removes every member in [lo, hi).
func (ss *seqSet) drop(lo, hi int64) {
	i, _ := slices.BinarySearch(ss.seqs, lo)
	j, _ := slices.BinarySearch(ss.seqs, hi)
	if i < j {
		ss.seqs = slices.Delete(ss.seqs, i, j)
	}
}

// reset empties the set, keeping its storage.
func (ss *seqSet) reset() { ss.seqs = ss.seqs[:0] }
