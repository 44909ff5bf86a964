package netem

import (
	"fmt"
	"math/rand"
)

// GilbertLoss is the two-state Gilbert-Elliott loss model: a Markov
// chain alternating between a good state (no drops) and a bad state
// (drops with high probability), producing the *correlated* bursty
// losses the paper's introduction reports as common in the Internet
// (Paxson — its [18]) and that RR is designed to survive. The chain
// advances once per data packet.
type GilbertLoss struct {
	// PGoodToBad is the per-packet probability of entering the bad state.
	PGoodToBad float64
	// PBadToGood is the per-packet probability of leaving the bad state.
	PBadToGood float64
	// PDropBad is the drop probability while in the bad state (1 =
	// classic Gilbert).
	PDropBad float64
	// Dst receives surviving packets.
	Dst Node

	rng *rand.Rand
	bad bool
	lossTelemetry

	// Dropped and Forwarded count outcomes.
	Dropped   uint64
	Forwarded uint64
}

var (
	_ Node             = (*GilbertLoss)(nil)
	_ DstSetter        = (*GilbertLoss)(nil)
	_ LossInstrumenter = (*GilbertLoss)(nil)
)

// SetDst implements DstSetter.
func (g *GilbertLoss) SetDst(n Node) { g.Dst = n }

// NewGilbertLoss builds the model in the good state.
//
// The stationary loss rate is PDropBad · πbad with
// πbad = PGoodToBad / (PGoodToBad + PBadToGood), and the mean burst
// length is PDropBad / PBadToGood packets.
func NewGilbertLoss(pGoodToBad, pBadToGood, pDropBad float64, rng *rand.Rand, dst Node) *GilbertLoss {
	return &GilbertLoss{
		PGoodToBad: pGoodToBad,
		PBadToGood: pBadToGood,
		PDropBad:   pDropBad,
		Dst:        dst,
		rng:        rng,
	}
}

// GilbertParams derives the classic-Gilbert (PDropBad = 1) transition
// probabilities for a stationary loss rate and a mean loss-burst length
// in packets: PBadToGood = 1/burst and PGoodToBad = rate/(burst·(1−rate)).
// The chain spends at most burst/(burst+1) of its time in the bad state
// (PGoodToBad = 1), so a higher rate is an error rather than a silently
// milder channel.
func GilbertParams(rate, burst float64) (pGoodToBad, pBadToGood float64, err error) {
	if rate < 0 || burst < 1 || rate > burst/(burst+1) {
		return 0, 0, fmt.Errorf("netem: no Gilbert channel loses %v of packets in bursts of mean length %v (need 0 <= rate <= burst/(burst+1), burst >= 1)", rate, burst)
	}
	pBadToGood = 1 / burst
	return min(rate*pBadToGood/(1-rate), 1), pBadToGood, nil
}

// MeanLossRate returns the model's stationary drop probability.
func (g *GilbertLoss) MeanLossRate() float64 {
	denom := g.PGoodToBad + g.PBadToGood
	if denom <= 0 {
		return 0
	}
	return g.PDropBad * g.PGoodToBad / denom
}

// Receive implements Node. ACKs pass through untouched, matching the
// paper's forward-path loss setup.
func (g *GilbertLoss) Receive(p *Packet) {
	if p.Kind != Data {
		g.Dst.Receive(p)
		return
	}
	// Advance the chain.
	if g.bad {
		if g.rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else if g.rng.Float64() < g.PGoodToBad {
		g.bad = true
	}
	if g.bad && g.rng.Float64() < g.PDropBad {
		g.Dropped++
		g.emitDrop(p)
		p.Release()
		return
	}
	g.Forwarded++
	g.Dst.Receive(p)
}
