package sim

import (
	"errors"
	"testing"
	"time"
)

func TestGuardHookStopsRunAndRetainsError(t *testing.T) {
	s := NewScheduler(1)
	var tick *Timer
	tick = s.NewTimer(func() { tick.Reset(time.Millisecond) })
	tick.Reset(time.Millisecond)
	wantErr := errors.New("budget blown")
	var kept error
	s.SetGuard(func(now Time, processed uint64) error {
		if processed >= 5 {
			kept = wantErr
			return wantErr
		}
		return nil
	})
	s.Run(time.Hour)
	if s.Processed() != 5 {
		t.Fatalf("processed %d events, want the guard to stop after 5", s.Processed())
	}
	if !errors.Is(kept, wantErr) {
		t.Fatalf("hook kept %v, want %v", kept, wantErr)
	}
	if s.Pending() == 0 {
		t.Fatal("the stopped run should leave the rescheduled event pending")
	}
	// The clock stays at the stopping event, not the horizon.
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("clock at %v, want %v", s.Now(), 5*time.Millisecond)
	}
}

func TestGuardHookNilIsFree(t *testing.T) {
	run := func(guarded bool) (uint64, Time) {
		s := NewScheduler(3)
		if guarded {
			s.SetGuard(func(Time, uint64) error { return nil })
		}
		fired := 0
		var tick *Timer
		tick = s.NewTimer(func() {
			fired++
			if fired < 100 {
				tick.Reset(Time(s.Rand().Intn(7) + 1))
			}
		})
		tick.Reset(1)
		s.RunAll()
		return s.Processed(), s.Now()
	}
	freeN, freeAt := run(false)
	guardN, guardAt := run(true)
	if freeN != guardN || freeAt != guardAt {
		t.Fatalf("never-tripping guard diverged the run: %d@%v vs %d@%v", guardN, guardAt, freeN, freeAt)
	}
}
