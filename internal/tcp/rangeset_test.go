package tcp

import (
	"math/rand"
	"slices"
	"testing"
)

// copyingMerge is the merge SACKStrategy and FACKStrategy each carried
// before they shared a scoreboard: it builds a fresh slice per block.
// Kept as the oracle for the in-place rangeSet.merge, for the senders
// and (through refReassembly in receiver_test.go) the receiver.
func copyingMerge(sb []seqRange, nb seqRange) []seqRange {
	if nb.End <= nb.Start {
		return sb
	}
	merged := make([]seqRange, 0, len(sb)+1)
	inserted := false
	for _, b := range sb {
		switch {
		case b.End < nb.Start:
			merged = append(merged, b)
		case nb.End < b.Start:
			if !inserted {
				merged = append(merged, nb)
				inserted = true
			}
			merged = append(merged, b)
		default:
			if b.Start < nb.Start {
				nb.Start = b.Start
			}
			if b.End > nb.End {
				nb.End = b.End
			}
		}
	}
	if !inserted {
		merged = append(merged, nb)
	}
	return merged
}

// TestScoreboardMatchesCopyingMerge feeds random block sequences —
// overlapping, touching, nested, empty and inverted blocks, interleaved
// with cumulative-ACK trims and timeouts — to both and requires the same
// ranges after every step.
func TestScoreboardMatchesCopyingMerge(t *testing.T) {
	for trial := int64(0); trial < 50; trial++ {
		rng := rand.New(rand.NewSource(trial))
		var sb rangeSet
		var ref []seqRange
		for step := 0; step < 400; step++ {
			switch k := rng.Intn(20); {
			case k == 0:
				sb.reset()
				ref = nil
			case k < 4:
				cut := int64(rng.Intn(120))
				sb.trim(cut)
				kept := ref[:0:0]
				for _, b := range ref {
					if b.End <= cut {
						continue
					}
					b.Start = max(b.Start, cut)
					kept = append(kept, b)
				}
				ref = kept
			default:
				start := int64(rng.Intn(120))
				nb := seqRange{Start: start, End: start + int64(rng.Intn(12)) - 1}
				sb.merge(nb)
				ref = copyingMerge(ref, nb)
			}
			if !slices.Equal([]seqRange(sb), ref) {
				t.Fatalf("trial %d step %d: in-place %v, copying %v", trial, step, sb, ref)
			}
		}
	}
}

// TestScoreboardSteadyStateZeroAlloc: once the scoreboard has been as
// deep as it gets, merging, trimming and resetting allocate nothing.
func TestScoreboardSteadyStateZeroAlloc(t *testing.T) {
	var sb rangeSet
	churn := func() {
		for i := int64(0); i < 32; i++ {
			sb.merge(seqRange{Start: 4 * i, End: 4*i + 2}) // 32 islands
		}
		for i := int64(0); i < 32; i++ {
			sb.merge(seqRange{Start: 4*i + 2, End: 4*i + 4}) // fill the gaps
		}
		sb.trim(64)
		sb.reset()
	}
	churn()
	if avg := testing.AllocsPerRun(20, churn); avg != 0 {
		t.Fatalf("warm scoreboard churn allocates %.2f allocs/run, want 0", avg)
	}
}

// TestSeqSetMatchesMap holds seqSet to the map[int64]bool SACK and FACK
// kept their retransmitted holes in before: random adds, range drops
// (cumulative ACKs and SACK blocks, empty and inverted ones included)
// and resets, with the same members, in order, after every step. A set
// that never holds more than setDepth sequences allocates nothing.
func TestSeqSetMatchesMap(t *testing.T) {
	for trial := int64(0); trial < 50; trial++ {
		rng := rand.New(rand.NewSource(trial))
		var ss seqSet
		ref := map[int64]bool{}
		for step := 0; step < 400; step++ {
			switch k := rng.Intn(20); {
			case k == 0:
				ss.reset()
				clear(ref)
			case k < 6:
				lo := int64(rng.Intn(60))
				hi := lo + int64(rng.Intn(20)) - 4
				ss.drop(lo, hi)
				for seq := range ref {
					if seq >= lo && seq < hi {
						delete(ref, seq)
					}
				}
			default:
				seq := int64(rng.Intn(60))
				ss.add(seq)
				ref[seq] = true
			}
			want := make([]int64, 0, len(ref))
			for seq := range ref {
				want = append(want, seq)
			}
			slices.Sort(want)
			if !slices.Equal(ss.seqs, want) || ss.len() != len(ref) {
				t.Fatalf("trial %d step %d: set %v, map %v", trial, step, ss.seqs, want)
			}
			probe := int64(rng.Intn(60))
			if ss.has(probe) != ref[probe] {
				t.Fatalf("trial %d step %d: has(%d) = %v, map %v", trial, step, probe, ss.has(probe), ref[probe])
			}
		}
	}
	var ss seqSet
	if avg := testing.AllocsPerRun(20, func() {
		for seq := int64(setDepth); seq > 0; seq-- {
			ss.add(seq * 1000)
		}
		ss.drop(0, 3000)
		ss.reset()
	}); avg != 0 {
		t.Fatalf("a set of %d sequences allocates %.2f allocs/run, want 0", setDepth, avg)
	}
}
