package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// worldA leaves s as a world the next Reset must wipe: the ordering
// script run to its end, streams drawn from and one left undrawn, a
// guard installed, timers armed and lanes pushed that
// never fire, packets counted and not flushed.
func worldA(t *testing.T, s *Scheduler, seed int64) {
	t.Helper()
	q := newRealQueueOn(s)
	if len(orderingScript(q, seed)) < 4000 {
		t.Fatal("world A's script fired too few events")
	}
	s.Rand().Float64()
	s.DeriveRand("faults").Int63()
	s.DeriveRand("stress-plan")
	s.SetGuard(func(Time, uint64) error { return nil })
	q.armTimer(3, s.Now()+time.Second, -1)
	q.pushLane(2, time.Second, -2)
	q.pushShared(5, scriptDelays[4], -3)
	s.CountPacket()
}

// schedulerState is what a world can read off its scheduler.
type schedulerState struct {
	Now                        Time
	Pending, HighWater, Lanes  int
	Processed                  uint64
	Fired                      []int
	Rand, Faults, Plan, Unseen []int64
}

// worldB runs world B's script on s and reads it off, streams included.
func worldB(s *Scheduler, seed int64) schedulerState {
	var st schedulerState
	st.Fired = orderingScript(newRealQueueOn(s), seed)
	st.Now, st.Pending, st.HighWater, st.Lanes = s.Now(), s.Pending(), s.HeapHighWater(), s.LaneCount()
	st.Processed = s.Processed()
	draw := func(r *rand.Rand) []int64 {
		v := make([]int64, 700) // past the 607-word table, so every word was reseeded
		for i := range v {
			v[i] = r.Int63()
		}
		return v
	}
	st.Faults, st.Rand = draw(s.DeriveRand("faults")), draw(s.Rand())
	st.Plan, st.Unseen = draw(s.DeriveRand("stress-plan")), draw(s.DeriveRand("unseen"))
	return st
}

// TestResetMatchesFresh: a scheduler Reset after running world A runs
// world B exactly as a new scheduler does — the same firing order, the
// same Pending at every event, the same lane count and high-water mark —
// and its streams, drawn from tables world A seeded, are B's.
func TestResetMatchesFresh(t *testing.T) {
	for _, seeds := range [][2]int64{{100, 101}, {101, 100}, {7, 7}, {-3, 1 << 40}} {
		a, b := seeds[0], seeds[1]
		s := NewScheduler(a)
		worldA(t, s, a)
		s.Reset(b)
		if s.Seed() != b || s.Now() != 0 || s.Pending() != 0 || s.HeapHighWater() != 0 || s.LaneCount() != 0 {
			t.Fatalf("%d -> %d: reset scheduler reads seed %d, now %v, pending %d, high water %d, %d lanes",
				a, b, s.Seed(), s.Now(), s.Pending(), s.HeapHighWater(), s.LaneCount())
		}
		got, want := worldB(s, b), worldB(NewScheduler(b), b)
		if !reflect.DeepEqual(got, want) {
			for i := range want.Fired {
				if i >= len(got.Fired) || got.Fired[i] != want.Fired[i] {
					t.Fatalf("%d -> %d: world B diverges from a new scheduler at script output %d", a, b, i)
				}
			}
			t.Fatalf("%d -> %d: world B on the reset scheduler reads\n%+v\nwant\n%+v", a, b,
				got.summary(), want.summary())
		}
	}
}

func (st schedulerState) summary() schedulerState {
	st.Fired, st.Rand, st.Faults, st.Plan, st.Unseen = nil, nil, nil, nil, nil
	return st
}

// TestResetKeepsStorage: a reset world of the same shape reuses the
// memory the last one grew — heap, arena, lane rings, Timer handle blocks
// and generator tables — so building and running it again allocates only
// the rand.Rand and the source behind each generator handed out.
func TestResetKeepsStorage(t *testing.T) {
	s := NewScheduler(1)
	fires := 0
	fire := func() { fires++ }
	onShared := func(sharedID) { fires++ }
	world := func() {
		for i := 0; i < 40; i++ {
			s.NewTimer(fire).Reset(Time(i%7) * time.Microsecond)
		}
		shared := LanesOf(s, onShared)
		var last *DelayLane[sharedID]
		for i := 0; i < 200; i++ {
			last = shared.Push(last, scriptDelays[i%len(scriptDelays)], sharedID(i))
		}
		s.RunAll()
		s.Rand().Int63()
		s.DeriveRand("faults").Int63()
	}
	world()
	got := testing.AllocsPerRun(10, func() {
		s.Reset(2)
		world()
	})
	if got != 4 {
		t.Fatalf("rebuilding a scheduler's world allocates %.0f times, want 4 (two generators)", got)
	}
	if fires != 12*240 { // the first world, AllocsPerRun's warm-up, ten measured
		t.Fatalf("%d events fired over 12 worlds, want %d", fires, 12*240)
	}
}

// mustPanic fails unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s after Reset did not panic", what)
		}
	}()
	f()
}

// TestResetInvalidatesHandles: a Timer, a generator or a lane of the
// world before a Reset panics when used, rather than arming a slot of,
// drawing from the stream of, or pushing into the next world.
func TestResetInvalidatesHandles(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.NewTimer(func() { fired = true })
	tm.Reset(time.Millisecond)
	drawn := s.Rand()
	drawn.Int63()
	undrawn := s.DeriveRand("faults")
	var l Lane[int]
	l.Init(s, func(int) { fired = true })
	l.Push(time.Millisecond, 1)

	s.Reset(2)
	mustPanic(t, "Timer.Reset", func() { tm.Reset(time.Millisecond) })
	mustPanic(t, "Timer.At", func() { tm.At(time.Millisecond) })
	mustPanic(t, "Timer.Stop", tm.Stop)
	mustPanic(t, "Timer.Armed", func() { tm.Armed() })
	mustPanic(t, "a drawn *rand.Rand", func() { drawn.Int63() })
	mustPanic(t, "an undrawn *rand.Rand", func() { undrawn.Float64() })
	mustPanic(t, "Lane.Push", func() { l.Push(time.Millisecond, 2) })
	s.RunAll()
	if fired || s.Processed() != 0 {
		t.Fatalf("the reset scheduler fired %d events of the world before it", s.Processed())
	}
	if s.Rand() == drawn {
		t.Fatal("the reset scheduler handed out the old world's generator")
	}
}
