package netem

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rrtcp/internal/sim"
)

// pkt returns a data packet carrying id in Seq, which is how these
// tests tell packets apart.
func pkt(id uint64) *Packet {
	return &Packet{Seq: int64(id), Kind: Data, Size: 1000, Len: 1000}
}

func pktID(p *Packet) uint64 { return uint64(p.Seq) }

func TestDropTailCapacity(t *testing.T) {
	q := Must(NewDropTail(3))
	for i := uint64(0); i < 3; i++ {
		if !q.Enqueue(pkt(i), 0) {
			t.Fatalf("packet %d rejected below capacity", i)
		}
	}
	if q.Enqueue(pkt(3), 0) {
		t.Fatal("packet accepted above capacity")
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d, want 3", q.Len())
	}
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := Must(NewDropTail(10))
	for i := uint64(0); i < 5; i++ {
		q.Enqueue(pkt(i), 0)
	}
	for i := uint64(0); i < 5; i++ {
		p := q.Dequeue()
		if p == nil || pktID(p) != i {
			t.Fatalf("dequeue %d: got %v", i, p)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("dequeue from empty queue returned a packet")
	}
}

func TestDropTailRejectsDegenerateLimit(t *testing.T) {
	for _, lim := range []int{0, -1} {
		if q, err := NewDropTail(lim); err == nil {
			t.Fatalf("NewDropTail(%d) = %v, want error", lim, q)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	s := sim.NewScheduler(1)
	rng := rand.New(rand.NewSource(1))
	if _, err := NewLink(s, 0, time.Millisecond, nil, nil); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := NewLink(s, -1e6, time.Millisecond, nil, nil); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	if _, err := NewLink(s, 1e6, -time.Millisecond, nil, nil); err == nil {
		t.Fatal("negative delay accepted")
	}
	if _, err := NewLink(nil, 1e6, time.Millisecond, nil, nil); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := NewRED(REDConfig{Limit: 0, MinThreshold: 5, MaxThreshold: 20, MaxDropProb: 0.02, QueueWeight: 0.002}, rng); err == nil {
		t.Fatal("RED zero limit accepted")
	}
	if _, err := NewRED(REDConfig{Limit: 25, MinThreshold: 20, MaxThreshold: 5, MaxDropProb: 0.02, QueueWeight: 0.002}, rng); err == nil {
		t.Fatal("RED inverted thresholds accepted")
	}
	if _, err := NewRED(REDConfig{Limit: 25, MinThreshold: 5, MaxThreshold: 20, MaxDropProb: 0, QueueWeight: 0.002}, rng); err == nil {
		t.Fatal("RED zero maxp accepted")
	}
	if _, err := NewRED(REDConfig{Limit: 25, MinThreshold: 5, MaxThreshold: 20, MaxDropProb: 0.02, QueueWeight: 2}, rng); err == nil {
		t.Fatal("RED weight > 1 accepted")
	}
	if _, err := NewRED(PaperREDConfig(), nil); err == nil {
		t.Fatal("RED nil rng accepted")
	}
	if _, err := NewDRR(0, 10); err == nil {
		t.Fatal("DRR zero quantum accepted")
	}
	if _, err := NewDRR(1000, 0); err == nil {
		t.Fatal("DRR zero limit accepted")
	}
}

// Property: a drop-tail queue never holds more than its limit and
// preserves FIFO order for accepted packets.
func TestDropTailProperty(t *testing.T) {
	f := func(ops []bool, limit uint8) bool {
		lim := int(limit%16) + 1
		q := Must(NewDropTail(lim))
		var accepted, dequeued []uint64
		var next uint64
		for _, enq := range ops {
			if enq {
				p := pkt(next)
				next++
				if q.Enqueue(p, 0) {
					accepted = append(accepted, pktID(p))
				}
			} else if p := q.Dequeue(); p != nil {
				dequeued = append(dequeued, pktID(p))
			}
			if q.Len() > lim {
				return false
			}
		}
		for q.Len() > 0 {
			dequeued = append(dequeued, pktID(q.Dequeue()))
		}
		if len(dequeued) != len(accepted) {
			return false
		}
		for i := range accepted {
			if accepted[i] != dequeued[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestREDNoDropsBelowMinThreshold(t *testing.T) {
	cfg := PaperREDConfig()
	q := Must(NewRED(cfg, rand.New(rand.NewSource(1))))
	// With an empty queue the average stays near zero, so the first few
	// packets must always be accepted.
	for i := uint64(0); i < 4; i++ {
		if !q.Enqueue(pkt(i), 0) {
			t.Fatalf("packet %d dropped below min threshold", i)
		}
	}
	if q.EarlyDrops != 0 || q.ForcedDrops != 0 {
		t.Fatalf("drops below min threshold: early=%d forced=%d", q.EarlyDrops, q.ForcedDrops)
	}
}

func TestREDForcedDropAtLimit(t *testing.T) {
	cfg := PaperREDConfig()
	cfg.Limit = 5
	q := Must(NewRED(cfg, rand.New(rand.NewSource(1))))
	for i := uint64(0); i < 5; i++ {
		q.Enqueue(pkt(i), 0)
	}
	if q.Enqueue(pkt(5), 0) {
		t.Fatal("packet accepted with full buffer")
	}
	if q.ForcedDrops != 1 {
		t.Fatalf("forced drops = %d, want 1", q.ForcedDrops)
	}
}

func TestREDEarlyDropsInRandomRegion(t *testing.T) {
	cfg := REDConfig{
		MinThreshold: 2,
		MaxThreshold: 10,
		MaxDropProb:  0.5,
		QueueWeight:  0.5, // fast-moving average for the test
		Limit:        100,
	}
	q := Must(NewRED(cfg, rand.New(rand.NewSource(1))))
	dropsBefore := q.EarlyDrops
	// Grow the queue so the average sits between the thresholds.
	for i := uint64(0); i < 50; i++ {
		q.Enqueue(pkt(i), 0)
	}
	if q.AvgQueue() <= cfg.MinThreshold {
		t.Fatalf("average queue %f did not exceed min threshold", q.AvgQueue())
	}
	if q.EarlyDrops == dropsBefore {
		t.Fatal("no early drops despite average above min threshold")
	}
}

func TestREDForcedDropAboveMaxThreshold(t *testing.T) {
	cfg := REDConfig{
		MinThreshold: 1,
		MaxThreshold: 3,
		MaxDropProb:  0.1,
		QueueWeight:  1, // average == instantaneous
		Limit:        100,
	}
	q := Must(NewRED(cfg, rand.New(rand.NewSource(1))))
	for i := uint64(0); i < 10; i++ {
		q.Enqueue(pkt(i), 0)
	}
	if q.Len() > 4 {
		t.Fatalf("queue grew to %d despite max threshold 3", q.Len())
	}
	if q.ForcedDrops == 0 {
		t.Fatal("no forced drops above max threshold")
	}
}

func TestREDAverageDecaysWhenIdle(t *testing.T) {
	cfg := PaperREDConfig()
	cfg.QueueWeight = 0.5
	q := Must(NewRED(cfg, rand.New(rand.NewSource(1))))
	for i := uint64(0); i < 20; i++ {
		q.Enqueue(pkt(i), 0)
	}
	grown := q.AvgQueue()
	for q.Len() > 0 {
		q.Dequeue()
	}
	q.MarkIdle(time.Second)
	// Re-enqueue long after the queue drained: the average must have
	// aged down.
	q.Enqueue(pkt(100), 10*time.Second)
	if q.AvgQueue() >= grown {
		t.Fatalf("average %f did not decay from %f after idle period", q.AvgQueue(), grown)
	}
}

func TestREDDeterministicForSeed(t *testing.T) {
	run := func() (uint64, uint64) {
		q := Must(NewRED(PaperREDConfig(), rand.New(rand.NewSource(9))))
		for i := uint64(0); i < 500; i++ {
			q.Enqueue(pkt(i), time.Duration(i)*time.Millisecond)
			if i%3 == 0 {
				q.Dequeue()
			}
		}
		return q.EarlyDrops, q.ForcedDrops
	}
	e1, f1 := run()
	e2, f2 := run()
	if e1 != e2 || f1 != f2 {
		t.Fatalf("RED not deterministic: (%d,%d) vs (%d,%d)", e1, f1, e2, f2)
	}
}

func TestPaperREDConfigMatchesTable4(t *testing.T) {
	cfg := PaperREDConfig()
	if cfg.MinThreshold != 5 || cfg.MaxThreshold != 20 {
		t.Fatalf("thresholds %v/%v, want 5/20", cfg.MinThreshold, cfg.MaxThreshold)
	}
	if cfg.MaxDropProb != 0.02 {
		t.Fatalf("maxp = %v, want 0.02", cfg.MaxDropProb)
	}
	if cfg.QueueWeight != 0.002 {
		t.Fatalf("wq = %v, want 0.002", cfg.QueueWeight)
	}
	if cfg.Limit != 25 {
		t.Fatalf("limit = %v, want 25", cfg.Limit)
	}
}
