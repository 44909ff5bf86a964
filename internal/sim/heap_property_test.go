package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refEntry is one pending event in the reference queue: the same
// (time, sequence) key the arena heap orders by, plus the test's id.
type refEntry struct {
	at  Time
	seq uint64
	id  int
}

// refHeap is a textbook container/heap min-heap over (time, sequence) —
// the implementation the index-based 4-ary heap replaced, kept here as
// the ordering oracle.
type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestHeapMatchesReferenceOrder drives N random arms and stops — of
// timers armed once and dropped, and of timers re-armed while pending —
// and checks that the events fire in exactly the (time, sequence) order
// a reference container/heap implementation pops them. This is the
// determinism contract the experiment goldens depend on.
func TestHeapMatchesReferenceOrder(t *testing.T) {
	const ops = 2000
	for trial := int64(0); trial < 10; trial++ {
		rng := rand.New(rand.NewSource(trial + 100))
		s := NewScheduler(trial)

		var got []int
		var seq uint64 // mirrors the scheduler's internal sequence counter

		// live holds the reference model of pending events.
		live := map[int]refEntry{}
		nextID := 0

		type oneShot struct {
			tm *Timer
			id int
		}
		type timerArm struct {
			tm *Timer
			id int // id of the currently armed expiry, -1 when stopped
		}
		var shots []oneShot
		var timers []*timerArm

		for i := 0; i < ops; i++ {
			switch k := rng.Intn(10); {
			case k < 4: // one-shot: a fresh timer armed once
				id := nextID
				nextID++
				at := Time(rng.Intn(1000)) * time.Microsecond
				tm := s.NewTimer(func() { got = append(got, id) })
				if err := tm.At(at); err != nil {
					t.Fatal(err)
				}
				live[id] = refEntry{at: at, seq: seq, id: id}
				seq++
				shots = append(shots, oneShot{tm: tm, id: id})
			case k < 7: // arm (or re-arm) a timer
				var ta *timerArm
				if len(timers) == 0 || rng.Intn(3) == 0 {
					ta = &timerArm{id: -1}
					ta.tm = s.NewTimer(func() { got = append(got, ta.id) })
					timers = append(timers, ta)
				} else {
					ta = timers[rng.Intn(len(timers))]
				}
				if ta.id >= 0 {
					delete(live, ta.id) // re-arm replaces the pending expiry
				}
				id := nextID
				nextID++
				at := Time(rng.Intn(1000)) * time.Microsecond
				if err := ta.tm.At(at); err != nil {
					t.Fatal(err)
				}
				ta.id = id
				live[id] = refEntry{at: at, seq: seq, id: id}
				seq++
			case k < 9 && len(shots) > 0: // cancel a one-shot
				j := rng.Intn(len(shots))
				shots[j].tm.Stop()
				delete(live, shots[j].id)
				shots = append(shots[:j], shots[j+1:]...)
			case len(timers) > 0: // stop a timer
				ta := timers[rng.Intn(len(timers))]
				ta.tm.Stop()
				if ta.id >= 0 {
					delete(live, ta.id)
					ta.id = -1
				}
			}
		}

		// Reference pop order via container/heap.
		ref := make(refHeap, 0, len(live))
		for _, e := range live {
			ref = append(ref, e)
		}
		heap.Init(&ref)
		want := make([]int, 0, len(ref))
		for ref.Len() > 0 {
			want = append(want, heap.Pop(&ref).(refEntry).id)
		}

		s.RunAll()
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, reference popped %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fire order diverges at %d: got id %d, reference id %d",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestTimerSteadyStateZeroAlloc asserts the tentpole allocation
// contract: re-arming and firing a Timer allocates nothing once the
// heap and arena are warm.
func TestTimerSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler(1)
	var tm *Timer
	fires := 0
	tm = s.NewTimer(func() { fires++ })

	// Warm up: grow the heap and arena to steady-state size.
	tm.Reset(time.Microsecond)
	s.Run(s.Now() + 2*time.Microsecond)

	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 500; i++ {
			tm.Reset(time.Microsecond)
			s.Run(s.Now() + 2*time.Microsecond)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state timer churn allocates %.2f allocs/run, want 0", avg)
	}
	if fires == 0 {
		t.Fatal("timer never fired")
	}
}

// TestRekeyWhileArmedZeroAlloc covers the Reset-while-armed fast path
// (the retransmission-timer pattern): the pending entry is re-keyed in
// place, with no remove-then-push.
func TestRekeyWhileArmedZeroAlloc(t *testing.T) {
	s := NewScheduler(1)
	tm := s.NewTimer(func() {})
	tm.Reset(time.Second)
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 500; i++ {
			tm.Reset(time.Second) // always pending: pure re-key
		}
	})
	if avg != 0 {
		t.Fatalf("re-keying an armed timer allocates %.2f allocs/run, want 0", avg)
	}
	if !tm.Armed() {
		t.Fatal("timer should still be armed")
	}
}
