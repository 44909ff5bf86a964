// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue with stable FIFO ordering for
// simultaneous events, cancellable timers, and a seedable random-number
// source. It is the substrate on which the network and TCP models run,
// playing the role ns-2's scheduler plays in the paper's evaluation.
//
// The event queue is an index-based 4-ary min-heap over an arena of
// value slots, one per timer: arming, firing, and stopping a timer
// allocate nothing, and stop is O(log n) via the slot's tracked heap
// position. The one scheduling surface is the reusable-timer API
// (Scheduler.NewTimer plus Timer.At/Reset/Stop, mirroring time.Timer).
package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"time"
)

// Process-wide simulator totals, aggregated across every scheduler in
// the process so a live introspection scrape can watch a parallel
// sweep's aggregate event and packet rates. They are the only state
// schedulers share, and no scheduler touches them per event or per
// packet: each counts in its own plain fields and flushes both totals
// together, once per globalFlushEvery events plus once as each Run
// returns, so concurrent sweep jobs do not bounce these cache lines
// between cores. The counters are observability-only: nothing in the
// simulation reads them, so they cannot perturb determinism.
var (
	globalEvents  atomic.Uint64
	globalPackets atomic.Uint64
)

// globalFlushEvery is the event-count batching interval (power of two).
const globalFlushEvery = 4096

// GlobalCounters reports the process-wide totals: discrete events
// processed and packets transmitted across every scheduler so far. The
// totals are exact for every scheduler whose Run has returned; one
// mid-Run lags by at most globalFlushEvery events' worth.
func GlobalCounters() (events, packets uint64) {
	return globalEvents.Load(), globalPackets.Load()
}

// Time is a simulated instant, measured as an offset from the start of
// the simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// ErrScheduleInPast is returned when an event is scheduled before the
// current simulated time.
var ErrScheduleInPast = errors.New("sim: event scheduled in the past")

// heapEntry is one pending event in the priority queue. Entries are
// pure values (no pointers), so sift operations move them without
// write barriers; idx names the arena slot holding the handler.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

// timerSlot is one arena cell, owned by one Timer for the scheduler's
// lifetime: the handler is written once at NewTimer, so arming and
// firing touch only pointer-free fields (no write barriers on the hot
// path). heapPos is the slot's position in the heap, -1 when idle.
type timerSlot struct {
	fn      func()
	at      Time
	heapPos int32
}

// Scheduler owns the virtual clock and the pending event set. The zero
// value is not usable; construct one with NewScheduler.
type Scheduler struct {
	now     Time
	nextSeq uint64
	stopped bool
	seed    int64
	rng     *rand.Rand // built on the first Rand call

	// unflushedPackets counts CountPacket calls not yet added to the
	// process-wide total.
	unflushedPackets uint64

	// Event queue: 4-ary min-heap of value entries ordered by
	// (time, sequence), over an arena of per-timer handler slots.
	heap      []heapEntry
	slots     []timerSlot
	highWater int

	// Processed counts events that have fired, for diagnostics.
	processed uint64

	// Profiling hook, fired every profEvery processed events.
	profEvery uint64
	profHook  func(now Time, processed uint64, pending int)

	// Guard hook, consulted after every processed event; a non-nil
	// return stops the run and is retained as guardErr.
	guard    func(now Time, processed uint64, pending int) error
	guardErr error
}

// NewScheduler returns a scheduler whose clock reads zero and whose
// random source is seeded with the given seed. All randomness used by a
// simulation must flow through Rand so that runs are reproducible.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{seed: seed}
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Seed reports the seed the scheduler was constructed with.
func (s *Scheduler) Seed() int64 { return s.seed }

// Rand exposes the scheduler's deterministic random source: the stream
// of rand.NewSource(Seed()), seeded when the first value is drawn.
func (s *Scheduler) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = newLazyRand(s.seed)
	}
	return s.rng
}

// DeriveRand returns an independent deterministic random source keyed
// by the scheduler's seed and the given tag. Consumers with their own
// randomness (fault injectors, chaos schedules) draw from a derived
// stream so their draws neither perturb nor depend on the shared Rand
// sequence: adding a fault plan to a scenario leaves every other random
// decision in the run unchanged. Like Rand, the stream is seeded on its
// first draw.
func (s *Scheduler) DeriveRand(tag string) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(s.seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(tag))
	return newLazyRand(int64(h.Sum64()))
}

// lazySource is rand.NewSource(seed) deferred to the first draw.
// Seeding the runtime's generator fills a 4.9 KB table, which a world
// that never draws (a drop-tail dumbbell with no loss model, a fault
// plan with no random injector) need not pay for; the values drawn are
// exactly those of the eager source.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func newLazyRand(seed int64) *rand.Rand { return rand.New(&lazySource{seed: seed}) }

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

// Int63 implements rand.Source.
func (l *lazySource) Int63() int64 { return l.source().Int63() }

// Uint64 implements rand.Source64, so rand.Rand takes the same path
// through this source as through the one it wraps.
func (l *lazySource) Uint64() uint64 { return l.source().Uint64() }

// Seed implements rand.Source.
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

// Pending reports the number of events waiting to fire.
func (s *Scheduler) Pending() int { return len(s.heap) }

// Processed reports the number of events that have fired so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// HeapHighWater reports the deepest the pending-event heap has been
// over the scheduler's lifetime — the working-set figure the headline
// benchmarks publish alongside throughput.
func (s *Scheduler) HeapHighWater() int { return s.highWater }

// SetProfileHook installs fn to be called every `every` processed
// events with the current time, the total processed count, and the
// heap depth — the scheduler-side feed for telemetry profiling. A nil
// fn or zero interval removes the hook. The hook runs synchronously on
// the simulation goroutine and must not schedule or cancel events.
func (s *Scheduler) SetProfileHook(every uint64, fn func(now Time, processed uint64, pending int)) {
	if fn == nil || every == 0 {
		s.profEvery, s.profHook = 0, nil
		return
	}
	s.profEvery, s.profHook = every, fn
}

// SetGuard installs fn to be consulted after every processed event with
// the current time, the total processed count, and the heap depth — the
// scheduler side of the overload guard (internal/guard). When fn
// returns a non-nil error the run stops after the in-flight event and
// the error is retained for GuardErr. A nil fn removes the hook; with
// no guard installed the loop pays a single nil check per event, so a
// guarded-but-untripped run processes the exact same event sequence as
// an unguarded one. Like the profiling hook, fn runs synchronously on
// the simulation goroutine and must not schedule or cancel events.
func (s *Scheduler) SetGuard(fn func(now Time, processed uint64, pending int) error) {
	s.guard = fn
}

// GuardErr reports the error that stopped the last run via the guard
// hook, or nil. It stays set across subsequent Run calls so callers can
// inspect it after a multi-phase simulation.
func (s *Scheduler) GuardErr() error { return s.guardErr }

// ---- heap + arena internals -------------------------------------------------

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Scheduler) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		s.slots[h[i].idx].heapPos = int32(i)
		i = p
	}
	h[i] = e
	s.slots[e.idx].heapPos = int32(i)
}

func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if entryLess(h[c], h[best]) {
				best = c
			}
		}
		if !entryLess(h[best], e) {
			break
		}
		h[i] = h[best]
		s.slots[h[i].idx].heapPos = int32(i)
		i = best
	}
	h[i] = e
	s.slots[e.idx].heapPos = int32(i)
}

func (s *Scheduler) heapPush(e heapEntry) {
	s.heap = append(s.heap, e)
	s.siftUp(len(s.heap) - 1)
	if len(s.heap) > s.highWater {
		s.highWater = len(s.heap)
	}
}

// heapPop removes and returns the minimum entry. The caller marks the
// entry's slot idle.
func (s *Scheduler) heapPop() heapEntry {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	s.heap = h[:n]
	if n > 0 {
		s.slots[s.heap[0].idx].heapPos = 0
		s.siftDown(0)
	}
	return top
}

// heapRemove deletes the entry at heap position pos (a Timer.Stop).
func (s *Scheduler) heapRemove(pos int) {
	h := s.heap
	n := len(h) - 1
	s.heap = h[:n]
	if pos == n {
		return
	}
	moved := h[n]
	h[pos] = moved
	s.slots[moved.idx].heapPos = int32(pos)
	s.siftDown(pos)
	if s.heap[pos].idx == moved.idx {
		s.siftUp(pos)
	}
}

// armSlot enqueues slot i's handler at absolute instant t, consuming
// one sequence number. A slot that is already pending is re-keyed in
// place — one sift instead of a remove-then-push — which is safe for
// determinism because heap pop order depends only on the (time, seq)
// keys of the live entries, never on how they got there.
func (s *Scheduler) armSlot(i int32, t Time) error {
	if t < s.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrScheduleInPast, t, s.now)
	}
	sl := &s.slots[i]
	sl.at = t
	seq := s.nextSeq
	s.nextSeq++
	if pos := sl.heapPos; pos >= 0 {
		old := s.heap[pos]
		s.heap[pos] = heapEntry{at: t, seq: seq, idx: i}
		// seq only ever grows, so the new key moves toward the leaves
		// unless the time moved strictly earlier.
		if t < old.at {
			s.siftUp(int(pos))
		} else {
			s.siftDown(int(pos))
		}
		return nil
	}
	s.heapPush(heapEntry{at: t, seq: seq, idx: i})
	return nil
}

// Stop makes the current Run call return after the in-flight event.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events in order until the queue empties, Stop is called,
// or the next event lies strictly beyond until. Unless stopped early,
// the clock is left at until.
func (s *Scheduler) Run(until Time) {
	s.run(until, true)
}

// RunAll executes events until the queue is empty or Stop is called,
// leaving the clock at the last fired event.
func (s *Scheduler) RunAll() {
	s.run(1<<63-1, false)
}

func (s *Scheduler) run(until Time, advanceClock bool) {
	s.stopped = false
	var batch uint64 // events since the last global-counter flush
	defer func() {
		if batch > 0 {
			globalEvents.Add(batch)
		}
		s.flushPackets()
	}()
	for len(s.heap) > 0 && !s.stopped {
		if s.heap[0].at > until {
			s.now = until
			return
		}
		top := s.heapPop()
		sl := &s.slots[top.idx]
		fn := sl.fn
		s.now = top.at
		// Mark the slot idle so the handler can re-arm its timer.
		sl.heapPos = -1
		s.processed++
		if batch++; batch == globalFlushEvery {
			globalEvents.Add(batch)
			batch = 0
			s.flushPackets()
		}
		fn()
		if s.profHook != nil && s.processed%s.profEvery == 0 {
			s.profHook(s.now, s.processed, len(s.heap))
		}
		if s.guard != nil {
			if err := s.guard(s.now, s.processed, len(s.heap)); err != nil {
				s.guardErr = err
				s.stopped = true
			}
		}
	}
	if !s.stopped && advanceClock && s.now < until {
		s.now = until
	}
}

// CountPacket records one transmitted packet against this scheduler's
// world; packet sources (netem links) call it as they serialize. The
// count reaches the process-wide total at the next flush.
func (s *Scheduler) CountPacket() { s.unflushedPackets++ }

// flushPackets moves the scheduler's packet count into the process-wide
// total.
func (s *Scheduler) flushPackets() {
	if s.unflushedPackets > 0 {
		globalPackets.Add(s.unflushedPackets)
		s.unflushedPackets = 0
	}
}

// ---- reusable timers --------------------------------------------------------

// Timer is a restartable one-shot timer bound to a scheduler — the
// building block for TCP retransmission timers and every other
// recurring event source. A Timer is created once with its handler and
// re-armed any number of times; arming allocates nothing, because the
// pending event lives in the timer's own scheduler arena slot. Timers mirror
// time.Timer: At/Reset arm, Stop disarms, and an expired timer simply
// reads as not Armed until re-armed (the handler does not need to touch
// the timer).
type Timer struct {
	s    *Scheduler
	slot int32
}

// NewTimer returns a stopped timer that runs fn when it expires. The
// timer owns its arena slot for the scheduler's lifetime, so create
// timers per long-lived event source (or pool them), not per arm.
func (s *Scheduler) NewTimer(fn func()) *Timer {
	s.slots = append(s.slots, timerSlot{fn: fn, heapPos: -1})
	return &Timer{s: s, slot: int32(len(s.slots) - 1)}
}

// At arms the timer to fire at the absolute instant at, replacing any
// pending expiry. Arming before the current simulated time returns
// ErrScheduleInPast and leaves the timer stopped.
func (t *Timer) At(at Time) error {
	if err := t.s.armSlot(t.slot, at); err != nil {
		t.Stop()
		return err
	}
	return nil
}

// Reset (re)arms the timer to fire after d, replacing any pending
// expiry. A negative d is clamped to zero.
func (t *Timer) Reset(d Time) {
	if d < 0 {
		d = 0
	}
	t.At(t.s.now + d) //nolint:errcheck // now+d with d >= 0 is never in the past
}

// Stop disarms the timer if it is pending. Stopping an expired or
// already-stopped timer is a no-op.
func (t *Timer) Stop() {
	sl := &t.s.slots[t.slot]
	if sl.heapPos < 0 {
		return
	}
	t.s.heapRemove(int(sl.heapPos))
	sl.heapPos = -1
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool {
	return t.s.slots[t.slot].heapPos >= 0
}

// ExpiresAt reports when the timer will fire; valid only when Armed.
func (t *Timer) ExpiresAt() Time {
	if !t.Armed() {
		return 0
	}
	return t.s.slots[t.slot].at
}
