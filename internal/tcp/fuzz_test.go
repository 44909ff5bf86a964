package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// strategiesUnderTest builds one of each variant (fresh state per call).
func strategiesUnderTest() map[string]func() Strategy {
	return map[string]func() Strategy{
		"tahoe":     func() Strategy { return NewTahoe() },
		"reno":      func() Strategy { return NewReno4BSD() },
		"newreno":   func() Strategy { return NewNewReno() },
		"sack":      func() Strategy { return NewSACK() },
		"sack6675":  func() Strategy { return NewSACKModern() },
		"fack":      func() Strategy { return NewFACK() },
		"rightedge": func() Strategy { return NewRightEdge() },
		"linkung":   func() Strategy { return NewLinKung() },
	}
}

func needsSACK(name string) bool {
	return name == "sack" || name == "sack6675" || name == "fack"
}

// TestVariantsSurviveRandomLossProperty drives every variant through
// randomly generated loss patterns — scattered first-transmission drops
// plus occasional retransmission drops — and requires the transfer to
// complete with the full byte stream delivered in order. This is the
// core reliability invariant: no loss pattern may wedge a sender.
func TestVariantsSurviveRandomLossProperty(t *testing.T) {
	const transfer = 150 * 1000
	for name, mk := range strategiesUnderTest() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				n := newTestNet(t, mk(), testNetConfig{
					totalBytes: transfer,
					window:     24,
					ssthresh:   12,
					sack:       needsSACK(name),
				})
				// Up to 15 scattered drops among the first 120 packets.
				drops := rng.Intn(16)
				for i := 0; i < drops; i++ {
					n.loss.Drop(0, int64(rng.Intn(120))*1000)
				}
				// Occasionally lose a retransmission as well.
				if rng.Intn(3) == 0 {
					n.loss.DropRetransmit(0, int64(rng.Intn(120))*1000)
				}
				n.start(t)
				n.run(600 * time.Second)
				if !n.sender.Done() {
					t.Logf("seed %d: transfer incomplete (una=%d)", seed, n.sender.SndUna())
					return false
				}
				if n.recv.Delivered != transfer {
					t.Logf("seed %d: delivered %d", seed, n.recv.Delivered)
					return false
				}
				if len(n.recv.blocks) != 0 {
					t.Logf("seed %d: leftover out-of-order blocks", seed)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVariantsSurviveRandomAckLossProperty repeats the exercise with
// ACK losses layered on top: self-clocking must re-establish via the
// retransmission timer no matter which ACKs disappear.
func TestVariantsSurviveRandomAckLossProperty(t *testing.T) {
	const transfer = 100 * 1000
	for name, mk := range strategiesUnderTest() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				n := newTestNet(t, mk(), testNetConfig{
					totalBytes: transfer,
					window:     24,
					ssthresh:   12,
					sack:       needsSACK(name),
				})
				for i := 0; i < rng.Intn(8); i++ {
					n.loss.Drop(0, int64(rng.Intn(80))*1000)
				}
				// Drop specific cumulative ACKs on the reverse path.
				for i := 0; i < rng.Intn(6); i++ {
					n.ackLoss.DropAck(0, int64(rng.Intn(80))*1000)
				}
				n.start(t)
				n.run(600 * time.Second)
				return n.sender.Done() && n.recv.Delivered == transfer
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
