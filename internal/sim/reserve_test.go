package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// idler is a debtor in the shape of a link's serialization completion:
// each start reserves the event a delay d away, and the event does
// nothing but log unless work arrived before it was due, in which case
// it is pushed and fires. eager makes it push every event instead, which
// is what the reserved ones must be indistinguishable from.
type idler struct {
	s     *Scheduler
	set   *Lanes[int]
	last  *DelayLane[int]
	eager bool
	owed  []Key // reserved, in order
	ids   []int // what each owed event logs
	log   *[]string
}

func newIdler(s *Scheduler, eager bool, log *[]string) *idler {
	d := &idler{s: s, eager: eager, log: log}
	d.set = LanesOf(s, func(id int) { d.logf("fired %d", id) })
	s.AddDebtor(d)
	return d
}

func (d *idler) logf(format string, args ...any) {
	*d.log = append(*d.log, fmt.Sprintf("%v: ", d.s.Now())+fmt.Sprintf(format, args...))
}

// start owes (or pushes) event id due after dt.
func (d *idler) start(dt Time, id int) {
	if !d.eager {
		if k, ok := d.s.Reserve(dt); ok {
			d.owed, d.ids = append(d.owed, k), append(d.ids, id)
			return
		}
	}
	d.last = d.set.Push(d.last, dt, id)
}

// PayDebts implements Debtor: a passed event is logged as if it had
// fired at its time, the rest are pushed.
func (d *idler) PayDebts() {
	for i, k := range d.owed {
		if d.s.Passed(k) {
			*d.log = append(*d.log, fmt.Sprintf("%v: fired %d", k.At(), d.ids[i]))
			d.s.Credit()
		} else {
			d.last = d.set.PushKey(d.last, k.At()-d.s.Now(), k, d.ids[i])
		}
	}
	d.owed, d.ids = d.owed[:0], d.ids[:0]
}

// twinScripts runs script against an idler that reserves and one that
// pushes, each on a new scheduler, and fails unless their logs agree.
func twinScripts(t *testing.T, script func(s *Scheduler, d *idler)) {
	t.Helper()
	var logs [2][]string
	for i, eager := range []bool{false, true} {
		s := NewScheduler(1)
		d := newIdler(s, eager, &logs[i])
		script(s, d)
		d.logf("end: processed %d pending %d", s.Processed(), s.Pending())
	}
	if !slices.Equal(logs[0], logs[1]) {
		t.Fatalf("reserved and pushed events differ:\n%v\n%v", logs[0], logs[1])
	}
}

// The clock after RunAll is the last event fired, a reserved one
// included: one due after every pushed event still moves the clock to
// its time.
func TestRunAllEndsAtTheLastReservedEvent(t *testing.T) {
	twinScripts(t, func(s *Scheduler, d *idler) {
		s.NewTimer(func() { d.start(5*time.Millisecond, 1) }).Reset(time.Millisecond)
		s.RunAll()
		if s.Now() != 6*time.Millisecond {
			t.Errorf("RunAll ended at %v, want 6ms, the reserved event", s.Now())
		}
	})
}

// A reserved event pushed late sorts by its full key among events pushed
// since on its lane, and the run's end at a horizon inside the window or
// past it fires exactly the events due by the horizon.
func TestReservedKeySortsAmongLaterPushes(t *testing.T) {
	twinScripts(t, func(s *Scheduler, d *idler) {
		s.NewTimer(func() {}).Reset(10 * time.Millisecond) // the queue never empties before a horizon
		s.NewTimer(func() {
			d.start(2*time.Millisecond, 1) // due at 2 ms with the oldest sequence number
			d.last = d.set.Push(d.last, 2*time.Millisecond, 2)
		}).Reset(0)
		s.NewTimer(func() {
			d.last = d.set.Push(d.last, time.Millisecond, 3) // also due at 2 ms, pushed later
			d.logf("processed %d pending %d", s.Processed(), s.Pending())
		}).Reset(time.Millisecond)
		s.Run(time.Millisecond / 2)
		d.logf("paused")
		d.logf("processed %d pending %d", s.Processed(), s.Pending())
		s.NewTimer(func() { d.start(3*time.Millisecond, 4) }).Reset(0)
		s.Run(3 * time.Millisecond) // 4 is due at 3.5 ms
		d.logf("paused")
		d.logf("processed %d pending %d", s.Processed(), s.Pending())
		s.NewTimer(func() { d.start(time.Millisecond, 5) }).Reset(0)
		s.Run(5 * time.Millisecond) // 5 is due at 4 ms
		d.logf("paused")
		s.RunAll()
	})
}

// Keys an event passes are passed; keys reserved from it, or after the
// run, are not.
func TestPassedIsAgainstTheEventFiring(t *testing.T) {
	s := NewScheduler(1)
	var early, late Key
	s.NewTimer(func() { early, _ = s.Reserve(time.Millisecond) }).Reset(0)
	s.NewTimer(func() {
		late, _ = s.Reserve(0)
		if !s.Passed(early) || s.Passed(late) {
			t.Errorf("at 2 ms: Passed(1 ms) = %v, Passed(2 ms, reserved now) = %v", s.Passed(early), s.Passed(late))
		}
		s.Credit()
		s.Credit()
	}).Reset(2 * time.Millisecond)
	s.RunAll()
	if s.Processed() != 4 {
		t.Errorf("processed %d, want 2 timers and 2 credited events", s.Processed())
	}
	if after, _ := s.Reserve(0); s.Passed(after) {
		t.Error("a key reserved after the run reads as passed")
	}
}

// A guard installed while events are owed is installed after they are
// paid, so it counts them; while it is installed nothing is reserved.
func TestHookInstalledWithEventsOwed(t *testing.T) {
	t.Run("guard", func(t *testing.T) {
		twinScripts(t, func(s *Scheduler, d *idler) {
			d.start(time.Millisecond, 1) // before the run: owed by the reserving twin
			var seen []uint64
			s.SetGuard(func(_ Time, processed uint64) error { seen = append(seen, processed); return nil })
			s.NewTimer(func() { d.start(time.Millisecond, 2) }).Reset(0)
			s.RunAll()
			d.logf("guard saw %v", seen)
			if len(d.owed) != 0 {
				t.Error("an event was reserved while a guard was installed")
			}
		})
	})
}

// Reset forgets the debtors and what they owed: Processed reads zero and
// the next world pays nothing of the last.
func TestResetDropsDebtors(t *testing.T) {
	s := NewScheduler(1)
	var log []string
	d := newIdler(s, false, &log)
	d.start(time.Millisecond, 1)
	s.Reset(1)
	if s.Processed() != 0 || s.Pending() != 0 || len(d.owed) != 1 {
		t.Fatalf("after Reset: processed %d, pending %d, the stale debtor owes %d", s.Processed(), s.Pending(), len(d.owed))
	}
	s.NewTimer(func() {}).Reset(time.Millisecond)
	s.RunAll()
	if s.Processed() != 1 || len(log) != 0 {
		t.Fatalf("the next world processed %d events and paid %v", s.Processed(), log)
	}
}
