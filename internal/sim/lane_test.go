package sim

import (
	"testing"
	"time"
)

// TestLaneCountsAsOneHeapEntry pins what the two depth figures mean once
// lanes exist: Pending counts every event waiting to fire, HeapHighWater
// only what the event queue holds — one entry per non-empty lane.
func TestLaneCountsAsOneHeapEntry(t *testing.T) {
	s := NewScheduler(1)
	var l Lane[int]
	var got []int
	l.Init(s, func(v int) { got = append(got, v) })
	tm := s.NewTimer(func() {})
	tm.Reset(time.Second)
	for i := 0; i < 100; i++ {
		l.Push(Time(i)*time.Microsecond, i)
	}
	if s.Pending() != 101 {
		t.Fatalf("Pending = %d, want 101 (100 lane events + 1 timer)", s.Pending())
	}
	s.RunAll()
	if hw := s.HeapHighWater(); hw != 2 {
		t.Fatalf("HeapHighWater = %d, want 2 (one lane head + one timer)", hw)
	}
	if s.Processed() != 101 || s.Pending() != 0 {
		t.Fatalf("Processed = %d, Pending = %d, want 101 and 0", s.Processed(), s.Pending())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("lane fired %d at position %d", v, i)
		}
	}
}

// TestLaneSteadyStateZeroAlloc: once the ring has grown to the lane's
// working depth, pushing and firing allocate nothing.
func TestLaneSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler(1)
	var l Lane[*int]
	fires := 0
	l.Init(s, func(*int) { fires++ })
	v := new(int)
	churn := func() {
		for i := 0; i < 64; i++ {
			l.Push(Time(i)*time.Microsecond, v)
		}
		s.RunAll()
	}
	churn()
	if avg := testing.AllocsPerRun(20, churn); avg != 0 {
		t.Fatalf("warm lane churn allocates %.2f allocs/run, want 0", avg)
	}
	if fires == 0 {
		t.Fatal("lane never fired")
	}
}
