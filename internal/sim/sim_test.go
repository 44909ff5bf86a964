package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// after arms a fresh timer to run fn once, d from now.
func after(t *testing.T, s *Scheduler, d Time, fn func()) *Timer {
	t.Helper()
	timer := s.NewTimer(fn)
	if err := timer.At(s.Now() + d); err != nil {
		t.Fatalf("arm: %v", err)
	}
	return timer
}

func TestSchedulerRunsEventsInTimeOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i, d := range []time.Duration{30, 10, 20} {
		i := i
		after(t, s, d*time.Millisecond, func() { got = append(got, i) })
	}
	s.RunAll()
	want := []int{1, 2, 0}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSchedulerSimultaneousEventsFIFO(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		after(t, s, time.Millisecond, func() { got = append(got, i) })
	}
	s.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events fired out of order: %v", got)
		}
	}
}

func TestSchedulerClockAdvances(t *testing.T) {
	s := NewScheduler(1)
	var at Time
	after(t, s, 42*time.Millisecond, func() { at = s.Now() })
	s.RunAll()
	if at != 42*time.Millisecond {
		t.Fatalf("event fired at %v, want 42ms", at)
	}
	if s.Now() != 42*time.Millisecond {
		t.Fatalf("clock at %v, want 42ms", s.Now())
	}
}

func TestSchedulerRunHorizon(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	after(t, s, 2*time.Second, func() { fired = true })
	s.Run(time.Second)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if s.Now() != time.Second {
		t.Fatalf("clock at %v, want 1s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run(3 * time.Second)
	if !fired {
		t.Fatal("event not fired after extending horizon")
	}
}

func TestSchedulerScheduleInPast(t *testing.T) {
	s := NewScheduler(1)
	timer := s.NewTimer(func() {})
	if err := timer.At(-time.Millisecond); !errors.Is(err, ErrScheduleInPast) {
		t.Fatalf("arming before the epoch: err = %v, want ErrScheduleInPast", err)
	}
	if timer.Armed() {
		t.Fatal("timer armed after a rejected At")
	}
	after(t, s, time.Second, func() {})
	s.RunAll()
	if err := timer.At(0); !errors.Is(err, ErrScheduleInPast) {
		t.Fatalf("arming before the current clock: err = %v, want ErrScheduleInPast", err)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	timer := after(t, s, time.Millisecond, func() { fired = true })
	timer.Stop()
	timer.Stop() // stopping twice is a no-op
	s.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulerCancelFromWithinEvent(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	var later *Timer
	after(t, s, time.Millisecond, func() { later.Stop() })
	later = after(t, s, 2*time.Millisecond, func() { fired = true })
	s.RunAll()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	for i := 0; i < 5; i++ {
		after(t, s, time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	s.RunAll()
	if count != 2 {
		t.Fatalf("processed %d events after Stop, want 2", count)
	}
}

func TestSchedulerEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler(1)
	var got []Time
	after(t, s, time.Millisecond, func() {
		got = append(got, s.Now())
		after(t, s, time.Millisecond, func() { got = append(got, s.Now()) })
	})
	s.RunAll()
	if len(got) != 2 || got[1] != 2*time.Millisecond {
		t.Fatalf("nested event timing wrong: %v", got)
	}
}

func TestSchedulerDeterministicRand(t *testing.T) {
	a, b := NewScheduler(7), NewScheduler(7)
	for i := 0; i < 100; i++ {
		if a.Rand().Float64() != b.Rand().Float64() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestSchedulerProcessedCount(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 10; i++ {
		after(t, s, time.Duration(i)*time.Millisecond, func() {})
	}
	s.RunAll()
	if s.Processed() != 10 {
		t.Fatalf("processed = %d, want 10", s.Processed())
	}
}

// Property: regardless of the order delays are scheduled in, events fire
// in nondecreasing time order, and same-time events fire in schedule
// order.
func TestSchedulerOrderingProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) > 200 {
			delaysMs = delaysMs[:200]
		}
		s := NewScheduler(1)
		type firing struct {
			at  Time
			seq int
		}
		var fired []firing
		for i, d := range delaysMs {
			i := i
			after(t, s, time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, firing{at: s.Now(), seq: i})
			})
		}
		s.RunAll()
		if len(fired) != len(delaysMs) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		// Firing times must equal the sorted delays.
		sorted := make([]time.Duration, len(delaysMs))
		for i, d := range delaysMs {
			sorted[i] = time.Duration(d) * time.Millisecond
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, f := range fired {
			if f.at != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset of events means exactly the
// uncancelled ones fire.
func TestSchedulerCancelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(seed)
		n := 50
		events := make([]*Timer, n)
		fired := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			events[i] = after(t, s, time.Duration(rng.Intn(1000))*time.Millisecond, func() { fired[i] = true })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				cancelled[i] = true
				events[i].Stop()
			}
		}
		s.RunAll()
		for i := 0; i < n; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerResetReplacesPending(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	timer := s.NewTimer(func() { count++ })
	timer.Reset(10 * time.Millisecond)
	timer.Reset(20 * time.Millisecond)
	if !timer.Armed() {
		t.Fatal("timer not armed after Reset")
	}
	if timer.ExpiresAt() != 20*time.Millisecond {
		t.Fatalf("expires at %v, want 20ms", timer.ExpiresAt())
	}
	s.RunAll()
	if count != 1 {
		t.Fatalf("timer fired %d times, want 1", count)
	}
	if timer.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	timer := s.NewTimer(func() { fired = true })
	timer.Reset(10 * time.Millisecond)
	timer.Stop()
	timer.Stop() // idempotent
	s.RunAll()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerNegativeDelayClamped(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	timer := s.NewTimer(func() { fired = true })
	timer.Reset(-time.Second)
	s.RunAll()
	if !fired {
		t.Fatal("timer with clamped delay did not fire")
	}
}

func TestTimerRearmsFromCallback(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	var timer *Timer
	timer = s.NewTimer(func() {
		count++
		if count < 3 {
			timer.Reset(time.Millisecond)
		}
	})
	timer.Reset(time.Millisecond)
	s.RunAll()
	if count != 3 {
		t.Fatalf("timer chain fired %d times, want 3", count)
	}
}
