package sim

import (
	"testing"
	"time"
)

// chain arms a self-rearming timer that fires n times on s.
func chain(s *Scheduler, n int) {
	left := n
	var tm *Timer
	tm = s.NewTimer(func() {
		left--
		if left > 0 {
			tm.Reset(time.Millisecond)
		}
	})
	tm.Reset(0)
}

// TestGlobalCountersFlushRemainder checks the batched event counter:
// a run processing fewer events than the flush interval must still
// land them in the process-wide total when Run returns (the deferred
// remainder flush). Deltas are used because the counters are shared
// with every other test in the binary.
func TestGlobalCountersFlushRemainder(t *testing.T) {
	const n = 100 // well under globalFlushEvery
	before, _ := GlobalCounters()
	s := NewScheduler(1)
	chain(s, n)
	s.RunAll()
	after, _ := GlobalCounters()
	if got := after - before; got < n {
		t.Errorf("global events grew by %d, want >= %d", got, n)
	}
	if s.Processed() != n {
		t.Errorf("Processed() = %d, want %d", s.Processed(), n)
	}
}

// TestGlobalCountersBatchBoundary crosses the flush interval to
// exercise the in-loop flush path as well as the remainder.
func TestGlobalCountersBatchBoundary(t *testing.T) {
	const n = globalFlushEvery + globalFlushEvery/2
	before, _ := GlobalCounters()
	s := NewScheduler(2)
	chain(s, n)
	s.RunAll()
	after, _ := GlobalCounters()
	if got := after - before; got < n {
		t.Errorf("global events grew by %d, want >= %d", got, n)
	}
}

// TestPacketCounterFlush checks the per-scheduler packet counter: it
// reaches the process-wide total at the in-loop flush and as Run
// returns, and not before, so nothing on the packet path touches the
// shared counter.
func TestPacketCounterFlush(t *testing.T) {
	_, before := GlobalCounters()
	s := NewScheduler(3)
	s.CountPacket()
	if s.unflushedPackets != 1 {
		t.Fatalf("CountPacket outside Run: unflushed = %d, want 1", s.unflushedPackets)
	}
	const n = globalFlushEvery + 10
	left := n
	var tm *Timer
	tm = s.NewTimer(func() {
		s.CountPacket()
		if left--; left > 0 {
			tm.Reset(time.Millisecond)
		}
	})
	tm.Reset(0)
	s.RunAll()
	if s.unflushedPackets != 0 {
		t.Errorf("%d packets left unflushed after Run", s.unflushedPackets)
	}
	_, after := GlobalCounters()
	if got := after - before; got < n+1 {
		t.Errorf("global packets grew by %d, want >= %d", got, n+1)
	}
}
