package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSqrtWindowKnownValues(t *testing.T) {
	// C/sqrt(p) with C = sqrt(3/2): at p = 0.01, W = 12.247.
	got := SqrtWindow(0.01, CAckEveryPacket)
	if math.Abs(got-12.247448713915889) > 1e-9 {
		t.Fatalf("W(0.01) = %v", got)
	}
	if !math.IsInf(SqrtWindow(0, CAckEveryPacket), 1) {
		t.Fatal("p=0 must give an infinite bound")
	}
}

func TestSqrtWindowMonotone(t *testing.T) {
	prev := math.Inf(1)
	for _, p := range []float64{0.001, 0.01, 0.05, 0.1, 0.5} {
		w := SqrtWindow(p, CAckEveryPacket)
		if w >= prev {
			t.Fatalf("window not decreasing in p at %v", p)
		}
		prev = w
	}
}

func TestConstants(t *testing.T) {
	if math.Abs(CAckEveryPacket-math.Sqrt(1.5)) > 1e-12 {
		t.Fatalf("CAckEveryPacket = %v, want sqrt(3/2)", CAckEveryPacket)
	}
	if math.Abs(CDelayedAck-math.Sqrt(0.75)) > 1e-12 {
		t.Fatalf("CDelayedAck = %v, want sqrt(3/4)", CDelayedAck)
	}
}

func TestPadhyeBelowSqrtModel(t *testing.T) {
	// The timeout term only subtracts throughput: Padhye ≤ Mathis
	// everywhere.
	for _, p := range []float64{0.001, 0.01, 0.05, 0.1} {
		mathis := SqrtWindow(p, CAckEveryPacket)
		padhye := PadhyeWindow(0.2, 1.0, p, 1)
		if padhye > mathis {
			t.Fatalf("Padhye %v above Mathis %v at p=%v", padhye, mathis, p)
		}
	}
}

func TestPadhyeTimeoutTermDominatesAtHighLoss(t *testing.T) {
	// At 10% loss with a 1 s RTO the prediction collapses well below
	// the sqrt bound.
	mathis := SqrtWindow(0.1, CAckEveryPacket)
	padhye := PadhyeWindow(0.2, 1.0, 0.1, 1)
	if padhye > mathis/2 {
		t.Fatalf("Padhye %v not far below Mathis %v at p=0.1", padhye, mathis)
	}
}

func TestPadhyeEdgeCases(t *testing.T) {
	if PadhyeThroughputPps(0.2, 1, 0, 1) != 0 {
		t.Fatal("p=0 must give 0 (undefined regime)")
	}
	if PadhyeThroughputPps(0, 1, 0.01, 1) != 0 {
		t.Fatal("rtt=0 must give 0")
	}
}

func TestPadhyeConvergesToSqrtAtLowLoss(t *testing.T) {
	// As p→0 the timeout term vanishes; ratio → 1.
	p := 1e-6
	mathis := SqrtWindow(p, CAckEveryPacket)
	padhye := PadhyeWindow(0.2, 1.0, p, 1)
	if r := padhye / mathis; r < 0.95 {
		t.Fatalf("Padhye/Mathis = %v at p=1e-6, want →1", r)
	}
}

// Property: both models are positive and decreasing in p on (0, 0.5].
func TestModelsMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		p1 := 0.0005 + float64(a%1000)/2000*0.4
		p2 := 0.0005 + float64(b%1000)/2000*0.4
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		if p1 == p2 {
			return true
		}
		m1, m2 := SqrtWindow(p1, CAckEveryPacket), SqrtWindow(p2, CAckEveryPacket)
		d1, d2 := PadhyeWindow(0.2, 1, p1, 1), PadhyeWindow(0.2, 1, p2, 1)
		return m1 > m2 && m2 > 0 && d1 > d2 && d2 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
