package netem

import (
	"math"
	"math/rand"
	"testing"
)

func TestGilbertStationaryLossRate(t *testing.T) {
	// πbad = 0.01/(0.01+0.25) ≈ 0.0385; with PDropBad=1 the loss rate
	// is the same.
	sink := &collector{}
	g := NewGilbertLoss(0.01, 0.25, 1.0, rand.New(rand.NewSource(1)), sink)
	const n = 200000
	for i := uint64(0); i < n; i++ {
		g.Receive(pkt(i))
	}
	want := g.MeanLossRate()
	got := float64(g.Dropped) / n
	if math.Abs(got-want) > 0.006 {
		t.Fatalf("loss rate %f, stationary %f", got, want)
	}
}

func TestGilbertLossesAreBursty(t *testing.T) {
	// Compare run lengths: with PBadToGood=0.25 the mean burst is 4
	// packets, far above the ~1 of i.i.d. loss at the same rate.
	sink := &collector{}
	g := NewGilbertLoss(0.01, 0.25, 1.0, rand.New(rand.NewSource(2)), sink)
	const n = 100000
	var bursts, dropped int
	inBurst := false
	for i := uint64(0); i < n; i++ {
		before := g.Dropped
		g.Receive(pkt(i))
		wasDropped := g.Dropped > before
		if wasDropped {
			dropped++
			if !inBurst {
				bursts++
			}
		}
		inBurst = wasDropped
	}
	if bursts == 0 {
		t.Fatal("no loss bursts")
	}
	meanBurst := float64(dropped) / float64(bursts)
	if meanBurst < 2.5 {
		t.Fatalf("mean burst length %f, want ≥2.5 (correlated losses)", meanBurst)
	}
}

func TestGilbertSparesAcks(t *testing.T) {
	sink := &collector{}
	g := NewGilbertLoss(1, 0, 1, rand.New(rand.NewSource(1)), sink) // always bad
	g.Receive(&Packet{Kind: Ack, AckNo: 1000, Size: 40})
	if len(sink.pkts) != 1 {
		t.Fatal("ACK dropped")
	}
	g.Receive(pkt(1))
	if len(sink.pkts) != 1 {
		t.Fatal("data survived the permanent bad state")
	}
	if !g.bad {
		t.Fatal("state accessor")
	}
}

func TestGilbertZeroRates(t *testing.T) {
	sink := &collector{}
	g := NewGilbertLoss(0, 0, 1, rand.New(rand.NewSource(1)), sink)
	for i := uint64(0); i < 1000; i++ {
		g.Receive(pkt(i))
	}
	if g.Dropped != 0 {
		t.Fatalf("dropped %d with PGoodToBad=0", g.Dropped)
	}
	if g.MeanLossRate() != 0 {
		t.Fatal("mean loss rate with degenerate chain")
	}
}

func TestGilbertParams(t *testing.T) {
	for _, burst := range []float64{1, 2, 4, 7.5, 100} {
		// The bad state can hold at most burst/(burst+1) of the packets.
		limit := burst / (burst + 1)
		cases := []struct {
			name    string
			rate    float64
			wantErr bool
		}{
			{"typical", 0.02, false},
			{"zero", 0, false},
			{"at the limit", limit, false},
			{"just above the limit", math.Nextafter(limit, 1), true},
			{"certain loss", 1, true},
			{"negative", -0.1, true},
		}
		for _, tc := range cases {
			pG2B, pB2G, err := GilbertParams(tc.rate, burst)
			if (err != nil) != tc.wantErr {
				t.Errorf("burst %v, %s (rate %v): err = %v, want error %v", burst, tc.name, tc.rate, err, tc.wantErr)
				continue
			}
			if err != nil {
				continue
			}
			if pG2B < 0 || pG2B > 1 || pB2G <= 0 || pB2G > 1 {
				t.Errorf("burst %v, %s: probabilities (%v, %v) outside [0,1]", burst, tc.name, pG2B, pB2G)
			}
			g := NewGilbertLoss(pG2B, pB2G, 1, nil, nil)
			if got := g.MeanLossRate(); math.Abs(got-tc.rate) > 1e-12 {
				t.Errorf("burst %v, %s: stationary rate %v, want %v", burst, tc.name, got, tc.rate)
			}
		}
	}
	if _, _, err := GilbertParams(0.02, 0.5); err == nil {
		t.Error("mean burst below one packet accepted")
	}
}
