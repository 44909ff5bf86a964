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
// the implementation the index-based 4-ary heaps replaced, kept here as
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

// The ordering script's population: timers and lanes it arms and pushes,
// and sources that push on one shared Lanes set with a few delays.
const scriptTimers, scriptLanes, scriptSources = 40, 6, 50

// scriptDelays are what the sources push with: few, tied (0 twice over
// with the lanes' and timers' draws) and interleaving.
var scriptDelays = [...]Time{0, 7 * time.Microsecond, 20 * time.Microsecond, 20*time.Microsecond + 1, 150 * time.Microsecond}

// sharedID is the payload type of the script's shared set.
type sharedID int

// eventQueue is what the ordering script drives: the scheduler under
// test, and the container/heap oracle. Every armTimer and pushLane takes
// one sequence number; both fire ids in (time, sequence) order.
type eventQueue interface {
	now() Time
	armTimer(k int, at Time, id int) // arm or re-arm timer k; its expiry reports id
	stopTimer(k int)
	pushLane(k int, d Time, id int)
	pushShared(src int, d Time, id int) // source src pushes on the shared set
	// run fires every pending event, calling onFire(id) for each; onFire
	// may arm, stop and push.
	run(onFire func(id int))
	// depth reports Pending and HeapHighWater as they stand.
	depth() (pending, highWater int)
}

// realQueue is the scheduler: timers in a heap, lane heads in a flat
// array scanned for each event.
type realQueue struct {
	s      *Scheduler
	timers []*Timer
	ids    []int // ids[k] is what timer k reports when it expires
	lanes  []Lane[int]
	last   []*DelayLane[sharedID] // last[src] is the shared lane source src pushed on last
	onFire func(id int)
	sliced bool // run in 30 µs Run(until) slices instead of one RunAll
}

func newRealQueue() *realQueue { return newRealQueueOn(NewScheduler(1)) }

// newRealQueueOn binds the script's timers and lanes to s.
func newRealQueueOn(s *Scheduler) *realQueue {
	q := &realQueue{s: s, ids: make([]int, scriptTimers), lanes: make([]Lane[int], scriptLanes),
		last: make([]*DelayLane[sharedID], scriptSources)}
	for k := 0; k < scriptTimers; k++ {
		k := k
		q.timers = append(q.timers, q.s.NewTimer(func() { q.onFire(q.ids[k]) }))
	}
	for k := range q.lanes {
		q.lanes[k].Init(q.s, func(id int) { q.onFire(id) })
	}
	return q
}

func (q *realQueue) now() Time { return q.s.Now() }
func (q *realQueue) armTimer(k int, at Time, id int) {
	q.ids[k] = id
	if err := q.timers[k].At(at); err != nil {
		panic(err)
	}
}
func (q *realQueue) stopTimer(k int)                { q.timers[k].Stop() }
func (q *realQueue) pushLane(k int, d Time, id int) { q.lanes[k].Push(d, id) }
func (q *realQueue) pushShared(src int, d Time, id int) {
	// Every source looks the set up for itself, as every link does.
	shared := LanesOf(q.s, func(id sharedID) { q.onFire(int(id)) })
	q.last[src] = shared.Push(q.last[src], d, sharedID(id))
}
func (q *realQueue) run(onFire func(id int)) {
	q.onFire = onFire
	if q.sliced {
		// Bounded runs: most slices end between two events, some on one.
		for q.s.Pending() > 0 {
			q.s.Run(q.s.Now() + 30*time.Microsecond)
		}
		return
	}
	q.s.RunAll()
}
func (q *realQueue) depth() (int, int) { return q.s.Pending(), q.s.HeapHighWater() }

// oracleQueue gives every event, timer expiry or lane push alike, its own
// entry in one textbook heap. Stopped and re-armed expiries are skipped
// when they surface. It also keeps the two depth figures by their
// definitions: Pending is every live entry; the event queue holds one
// entry per armed timer and one per lane with anything waiting, a shared
// set having a lane for each delay it has events pending with.
type oracleQueue struct {
	h     refHeap
	seq   uint64
	clock Time
	armed map[int]int // timer -> id of its live expiry
	dead  map[int]bool

	live      int         // entries neither fired nor stopped
	laneOf    map[int]int // lane event id -> its lane
	waiting   map[int]int // lane -> events waiting on it
	highWater int
}

func newOracleQueue() *oracleQueue {
	return &oracleQueue{armed: map[int]int{}, dead: map[int]bool{}, laneOf: map[int]int{}, waiting: map[int]int{}}
}

func (q *oracleQueue) now() Time { return q.clock }
func (q *oracleQueue) add(at Time, id int) {
	heap.Push(&q.h, refEntry{at: at, seq: q.seq, id: id})
	q.seq++
	q.live++
	q.highWater = max(q.highWater, len(q.armed)+len(q.waiting))
}
func (q *oracleQueue) armTimer(k int, at Time, id int) {
	q.stopTimer(k)
	q.armed[k] = id
	q.add(at, id)
}
func (q *oracleQueue) stopTimer(k int) {
	if id, ok := q.armed[k]; ok {
		q.dead[id] = true
		delete(q.armed, k)
		q.live--
	}
}
func (q *oracleQueue) addLane(lane int, d Time, id int) {
	q.laneOf[id] = lane
	q.waiting[lane]++
	q.add(q.clock+d, id)
}
func (q *oracleQueue) pushLane(k int, d Time, id int) { q.addLane(k, d, id) }

// A shared lane is named by its delay, offset past the lanes' own numbers.
func (q *oracleQueue) pushShared(_ int, d Time, id int) { q.addLane(scriptLanes+int(d), d, id) }
func (q *oracleQueue) run(onFire func(id int)) {
	for q.h.Len() > 0 {
		e := heap.Pop(&q.h).(refEntry)
		if q.dead[e.id] {
			continue
		}
		q.live--
		if lane, ok := q.laneOf[e.id]; ok {
			if q.waiting[lane]--; q.waiting[lane] == 0 {
				delete(q.waiting, lane)
			}
		} else {
			for k, id := range q.armed {
				if id == e.id {
					delete(q.armed, k)
				}
			}
		}
		q.clock = e.at
		onFire(e.id)
	}
}
func (q *oracleQueue) depth() (int, int) { return q.live, q.highWater }

// orderingScript issues a seeded random mix of timer arms, re-arms and
// stops and of lane pushes — due times drawn from a small range, so ties
// are common and lane pushes arrive out of deadline order — and of pushes
// on the shared set from many sources with the few scriptDelays, first
// from outside the run and then from inside handlers (so lanes are
// pushed while their head is firing, and a shared lane that has just
// drained is re-keyed), and returns the ids in firing order, each followed
// by what Pending read as it fired, and HeapHighWater at the end.
func orderingScript(q eventQueue, seed int64) []int {
	const timers, lanes, setupOps, total = scriptTimers, scriptLanes, 1500, 9000
	rng := rand.New(rand.NewSource(seed))
	nextID := 0
	op := func() {
		id := nextID
		nextID++
		d := Time(rng.Intn(200)) * time.Microsecond
		switch k := rng.Intn(16); {
		case k < 4:
			q.pushLane(rng.Intn(lanes), d, id)
		case k < 8:
			q.armTimer(rng.Intn(timers), q.now()+d, id)
		case k < 10:
			q.stopTimer(rng.Intn(timers))
		default:
			q.pushShared(rng.Intn(scriptSources), scriptDelays[rng.Intn(len(scriptDelays))], id)
		}
	}
	for i := 0; i < setupOps; i++ {
		op()
	}
	var fired []int
	q.run(func(id int) {
		pending, _ := q.depth()
		fired = append(fired, id, pending)
		for n := rng.Intn(3); n > 0 && nextID < total; n-- {
			op()
		}
	})
	_, highWater := q.depth()
	return append(fired, highWater)
}

// TestHeapMatchesReferenceOrder checks that the timer heap and the flat
// lane heads together fire in exactly the (time, sequence) order a
// reference container/heap holding one entry per event pops them — across
// re-arms and stops, out-of-order and equal-time lane pushes, many
// sources sharing a few delay-keyed lanes, lanes that drain and refill,
// pushes made from inside handlers, and runs cut into bounded slices —
// and that Pending at every event and HeapHighWater at the end are what
// their definitions give on the reference. This is the
// determinism contract the experiment goldens depend on, and what lets a
// link's per-packet timers become a lane, and every link's lanes the
// world's few, without re-pinning anything.
func TestHeapMatchesReferenceOrder(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		real := newRealQueue()
		real.sliced = seed%2 == 1
		got := orderingScript(real, seed)
		if n, max := real.s.LaneCount(), scriptLanes+len(scriptDelays); n > max {
			t.Fatalf("seed %d: %d lanes bound to the scheduler, want at most %d (%d of its own, one per shared delay)",
				seed, n, max, scriptLanes)
		}
		want := orderingScript(newOracleQueue(), seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference popped %d", seed, len(got)/2, len(want)/2)
		}
		if len(got) < 2000 {
			t.Fatalf("seed %d: only %d events fired; the script is not exercising the queue", seed, len(got)/2)
		}
		for i := range want {
			switch {
			case got[i] == want[i]:
			case i == len(want)-1:
				t.Fatalf("seed %d: HeapHighWater = %d, reference %d", seed, got[i], want[i])
			case i%2 == 1:
				t.Fatalf("seed %d: Pending = %d at event %d, reference %d", seed, got[i], i/2, want[i])
			default:
				t.Fatalf("seed %d: fire order diverges at %d: got id %d, reference id %d",
					seed, i/2, got[i], want[i])
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
