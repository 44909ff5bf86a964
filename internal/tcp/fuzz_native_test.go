package tcp

import (
	"encoding/binary"
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
)

// fuzzVariantNames indexes the variants for fuzz input decoding, in a
// fixed order so corpus entries stay meaningful.
var fuzzVariantNames = []string{
	"tahoe", "reno", "newreno", "sack", "sack6675", "fack", "rightedge", "linkung",
}

// FuzzLossRecovery decodes an arbitrary byte string into a loss
// pattern — scattered first-transmission drops, retransmission drops,
// and ACK drops — and requires the selected variant to complete the
// transfer and deliver every byte in order. Any input that wedges a
// sender or corrupts the stream is a bug.
func FuzzLossRecovery(f *testing.F) {
	// Seed corpus: the paper's canonical burst patterns and the shapes
	// the property tests historically caught regressions with.
	f.Add(uint8(1), []byte{20, 21, 22})                     // Reno, 3-burst (Figure 5 left)
	f.Add(uint8(2), []byte{20, 21, 22, 23, 24, 25})         // New-Reno, 6-burst (Figure 5 right)
	f.Add(uint8(3), []byte{10, 40, 70, 100})                // SACK, scattered singles
	f.Add(uint8(0), []byte{20, 20, 20})                     // Tahoe, rtx of the same segment
	f.Add(uint8(5), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})      // FACK, half-window burst
	f.Add(uint8(6), []byte{119})                            // right-edge, tail loss
	f.Add(uint8(7), []byte{30, 31, 90, 91, 92, 30})         // Lin-Kung, two bursts + rtx drop
	f.Add(uint8(4), []byte{15, 16, 17, 18, 19, 20, 21, 22}) // modern SACK, long burst
	f.Add(uint8(1), []byte{0, 119, 60, 0, 119, 60, 0, 119}) // edge seqs repeated
	f.Fuzz(func(t *testing.T, variant uint8, pattern []byte) {
		name := fuzzVariantNames[int(variant)%len(fuzzVariantNames)]
		mk := strategiesUnderTest()[name]
		if len(pattern) > 30 {
			pattern = pattern[:30] // bound severity so the timer can always drain
		}
		const transfer = 120 * 1000
		n := newTestNet(t, mk(), testNetConfig{
			totalBytes: transfer,
			window:     24,
			ssthresh:   12,
			sack:       needsSACK(name),
		})
		for i, b := range pattern {
			seq := int64(b%120) * 1000
			switch i % 4 {
			case 0, 1:
				n.loss.Drop(0, seq)
			case 2:
				n.loss.DropRetransmit(0, seq)
			case 3:
				n.ackLoss.DropAck(0, seq)
			}
		}
		n.start(t)
		n.run(600 * time.Second)
		if !n.sender.Done() {
			t.Fatalf("%s wedged: una=%d of %d", name, n.sender.SndUna(), transfer)
		}
		if n.recv.Delivered != transfer {
			t.Fatalf("%s delivered %d bytes, want %d", name, n.recv.Delivered, transfer)
		}
		if len(n.recv.blocks) != 0 {
			t.Fatalf("%s left out-of-order blocks behind", name)
		}
	})
}

// FuzzAckInjection fires arbitrary — including forged and nonsensical —
// ACK numbers at a mid-transfer sender. Whatever arrives, sender state
// must stay structurally sane: snd.una inside the transfer, never
// beyond the data actually sent, and cwnd inside its bounds.
func FuzzAckInjection(f *testing.F) {
	le := binary.LittleEndian
	add := func(vals ...uint64) {
		buf := make([]byte, 8*len(vals))
		for i, v := range vals {
			le.PutUint64(buf[i*8:], v)
		}
		f.Add(buf)
	}
	add(1000, 2000, 3000)         // plausible cumulative ACKs
	add(0, 0, 0, 0)               // dup-ACK storm for seq 0
	add(1<<62, 1<<62)             // far beyond anything sent
	add(^uint64(0), ^uint64(0)-7) // negative when read as int64
	add(500, 1500, 999, 1001)     // mid-segment (never on MSS bounds)
	add(59000, 60000, 61000)      // around the end of the transfer
	f.Fuzz(func(t *testing.T, data []byte) {
		const transfer = 60 * 1000
		n := newTestNet(t, NewNewReno(), testNetConfig{
			totalBytes: transfer,
			window:     24,
			ssthresh:   12,
		})
		n.start(t)
		for i := 0; i+8 <= len(data) && i < 64*8; i += 8 {
			ackNo := int64(le.Uint64(data[i : i+8]))
			at := sim.Time(time.Duration(i/8) * 50 * time.Millisecond)
			n.sched.NewTimer(func() {
				n.sender.Receive(&netem.Packet{Kind: netem.Ack, Flow: 0, AckNo: ackNo, Size: 40})
			}).Reset(at)
		}
		n.run(600 * time.Second)
		s := n.sender
		if una := s.SndUna(); una < 0 || una > transfer || una > s.MaxSeq() {
			t.Fatalf("forged ACKs corrupted state: una=%d, max=%d", una, s.MaxSeq())
		}
		if nxt := s.SndNxt(); nxt < s.SndUna() || nxt > s.MaxSeq() {
			t.Fatalf("forged ACKs corrupted state: nxt=%d outside [%d, %d]", nxt, s.SndUna(), s.MaxSeq())
		}
		if cw := s.Cwnd(); cw < 1 || cw > 24 {
			t.Fatalf("forged ACKs pushed cwnd to %g", cw)
		}
	})
}
