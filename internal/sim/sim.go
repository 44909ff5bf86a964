// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue with stable FIFO ordering for
// simultaneous events, cancellable timers, and a seedable random-number
// source. It is the substrate on which the network and TCP models run,
// playing the role ns-2's scheduler plays in the paper's evaluation.
//
// There are two scheduling primitives. A Timer (Scheduler.NewTimer plus
// Timer.At/Reset/Stop, mirroring time.Timer) may be stopped or re-armed
// while pending. A Lane (Lane.Init plus Lane.Push) is a FIFO event source
// whose events always fire, in order; only its head occupies the event
// queue, however many events are waiting behind it. Sources that push
// with few distinct delays share a Lanes set (LanesOf plus Lanes.Push),
// one lane per delay. A source whose events mostly do nothing when they
// fire may instead Reserve an event's key without pushing it, push it
// under that key later (Lanes.PushKey) while the run has not Passed it,
// or else do its work and Credit it: a Debtor, which the scheduler has
// pay before anything reads the count of events.
//
// Processed counts every event that fired or that the run passed
// reserved, Pending every event armed, pushed or reserved and not yet
// passed: each reads what it would if every event were pushed. Neither
// HeapHighWater nor LaneCount sees a reserved event unless it is pushed.
//
// The event queue is an index-based 4-ary min-heap of armed timers and a
// flat array of lane heads, one per lane, merged by exact
// (time, sequence) as each event is taken. Arming, firing, and stopping
// allocate nothing, and stop is O(log n) via each entry's tracked heap
// position. The split keeps the events that always fire (packets on the
// wire) from sifting through the ones that almost never do (every
// flow's parked retransmission timer); a world has a handful of lanes,
// so their heads are scanned, not sifted.
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
// together, once per globalFlushEvery dispatched events plus once as
// each Run returns, so concurrent sweep jobs do not bounce these cache lines
// between cores. The counters are observability-only: nothing in the
// simulation reads them, so they cannot perturb determinism.
var (
	globalEvents  atomic.Uint64
	globalPackets atomic.Uint64
)

// globalFlushEvery is the event-count batching interval (power of two).
const globalFlushEvery = 4096

// GlobalCounters reports the process-wide totals: discrete events
// processed (Processed) and packets transmitted across every scheduler
// so far. The totals are exact for every scheduler whose Run has
// returned; one mid-Run lags by up to globalFlushEvery dispatched
// events and the events credited since its last flush.
func GlobalCounters() (events, packets uint64) {
	return globalEvents.Load(), globalPackets.Load()
}

// Time is a simulated instant, measured as an offset from the start of
// the simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// ErrScheduleInPast is returned when an event is scheduled before the
// current simulated time.
var ErrScheduleInPast = errors.New("sim: event scheduled in the past")

// Key orders events: by due time, then by the sequence number taken
// when the event was armed, pushed or reserved. No two events share a
// key.
type Key struct {
	at  Time
	seq uint64
}

// At reports when the event keyed k is due.
func (k Key) At() Time { return k.at }

func (a Key) less(b Key) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// noHead is the head of an empty lane. It sorts after every real key (no
// event takes the last sequence number), so the scan for the earliest
// head needs no test for emptiness.
var noHead = Key{at: 1<<63 - 1, seq: 1<<64 - 1}

// heapEntry is one armed timer in the priority queue. Entries are pure
// values (no pointers), so sift operations move them without write
// barriers; idx names the timer's arena slot.
type heapEntry struct {
	Key
	idx int32
}

// eventHeap is a 4-ary min-heap of entries ordered by (time, sequence),
// over the arena of its owners' slots. Each slot tracks where its entry
// sits in e, so an entry can be removed or re-keyed in O(log n) without
// a search.
type eventHeap struct {
	e     []heapEntry
	slots []slot
}

// slot is one arena cell, owned by one Timer until the scheduler is
// Reset. heapPos is the position of the timer's entry in the heap, -1
// when it has none. fn is the timer's handler: it is written once at
// NewTimer and sits beside the position, so a timer event costs one
// cache line of arena and, arming and firing touching only heapPos, no
// write barrier.
type slot struct {
	fn      func()
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

	// Event queue: armed timers in a heap, and heads[i] the earliest
	// event of lanes[i] (noHead while it is empty). busy counts the
	// non-empty lanes; queued the lane events pushed and not yet fired,
	// heads included.
	timers    eventHeap
	heads     []Key
	lanes     []laneFirer
	laneSets  []laneSet // one *Lanes[T] per payload type, see LanesOf
	busy      int
	queued    int
	highWater int

	// past is the key of the event firing now, or of the last one fired:
	// a reserved key below it is one the run has passed (see Reserve).
	// owing counts the keys reserved and neither pushed nor credited;
	// debtors are the sources that hold them.
	past    Key
	owing   int
	debtors []Debtor

	// Processed events, for diagnostics: those dispatched, and those
	// credited by the debtor that reserved them. flushed is how many of
	// them the process-wide total has.
	dispatched, credited, flushed uint64

	// Guard hook, the one per-event hook: consulted after every
	// processed event, a non-nil return stops the run.
	guard func(now Time, processed uint64) error

	// What Reset hands on to the next world besides the queue's own
	// storage: the sources Rand and DeriveRand gave out (detached at
	// Reset), the generator tables the ones that drew had seeded, and
	// the blocks Timer handles are carved from.
	sources []*lazySource
	tables  []rand.Source64
	handles timerBlocks
}

// NewScheduler returns a scheduler whose clock reads zero and whose
// random source is seeded with the given seed. All randomness used by a
// simulation must flow through Rand so that runs are reproducible.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{seed: seed}
}

// Reset puts the scheduler back in the state NewScheduler(seed) gives —
// clock at zero, no event pending, no hook, nothing counted — keeping
// the memory the previous world grew: the timer heap and slot arena,
// the lane rings of every LanesOf set, the Timer handle blocks and the
// generator table of every source that drew. The next world then runs
// exactly as on a new scheduler while allocating little of it again.
//
// Everything the previous world held on the scheduler becomes invalid:
// its Timers are zeroed and its random sources detached, so using one
// panics rather than arming a slot in, or drawing from, the next world
// (a handle is zeroed until a later NewTimer carves it again). Its lanes
// are emptied and unbound; a Lanes set comes back on its next LanesOf.
// Reset must not be called from inside Run.
func (s *Scheduler) Reset(seed int64) {
	s.flushEvents()
	tables := s.tables
	for _, l := range s.sources {
		if l.src != nil {
			tables = append(tables, l.src)
		}
		*l = lazySource{} // detached: a stale *rand.Rand panics
	}
	for _, l := range s.lanes {
		l.unbind()
	}
	for _, set := range s.laneSets {
		set.unbind()
	}
	// Drop the previous world's sources, lanes, debtors and handlers.
	clear(s.sources)
	clear(s.lanes)
	clear(s.debtors)
	clear(s.timers.slots)
	s.handles.reset()
	*s = Scheduler{
		seed:     seed,
		timers:   eventHeap{e: s.timers.e[:0], slots: s.timers.slots[:0]},
		heads:    s.heads[:0],
		lanes:    s.lanes[:0],
		laneSets: s.laneSets,
		debtors:  s.debtors[:0],
		sources:  s.sources[:0],
		tables:   tables,
		handles:  s.handles,
	}
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Seed reports the seed the scheduler was constructed or last Reset with.
func (s *Scheduler) Seed() int64 { return s.seed }

// Rand exposes the scheduler's deterministic random source: the stream
// of rand.NewSource(Seed()), seeded when the first value is drawn.
func (s *Scheduler) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = s.newRand(s.seed)
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
	return s.newRand(int64(h.Sum64()))
}

// lazySource is rand.NewSource(seed) deferred to the first draw.
// Seeding the runtime's generator fills a 4.9 KB table, which a world
// that never draws (a drop-tail dumbbell with no loss model, a fault
// plan with no random injector) need not pay for; the values drawn are
// exactly those of the eager source. The table comes from the owning
// scheduler, which hands on the tables of one world to the next.
type lazySource struct {
	s    *Scheduler // nil once the scheduler is Reset
	seed int64
	src  rand.Source64
}

// newRand returns a generator for the stream of rand.NewSource(seed),
// owned by s until the next Reset.
func (s *Scheduler) newRand(seed int64) *rand.Rand {
	l := &lazySource{s: s, seed: seed}
	s.sources = append(s.sources, l)
	return rand.New(l)
}

// table returns a generator table seeded with seed: one a previous
// world seeded, reseeded in place, or a new one. Seeding a table
// rewrites all of it, so either way it yields rand.NewSource(seed)'s
// stream.
func (s *Scheduler) table(seed int64) rand.Source64 {
	n := len(s.tables)
	if n == 0 {
		return rand.NewSource(seed).(rand.Source64)
	}
	t := s.tables[n-1]
	s.tables[n-1] = nil
	s.tables = s.tables[:n-1]
	t.Seed(seed)
	return t
}

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		if l.s == nil {
			panic("sim: random source used after its Scheduler was Reset")
		}
		l.src = l.s.table(l.seed)
	}
	return l.src
}

// Int63 implements rand.Source.
func (l *lazySource) Int63() int64 { return l.source().Int63() }

// Uint64 implements rand.Source64, so rand.Rand takes the same path
// through this source as through the one it wraps.
func (l *lazySource) Uint64() uint64 { return l.source().Uint64() }

// Seed implements rand.Source. A table already made is reseeded in place.
func (l *lazySource) Seed(seed int64) {
	l.seed = seed
	if l.src != nil {
		l.src.Seed(seed)
	}
}

// Pending reports the number of events waiting to fire: every armed
// timer plus every event pushed on a lane, whether it is the lane's
// head (and so in the event queue) or waiting behind it, plus every
// reserved event the run has not passed. Reading it has the debtors pay
// what they owe (see Debtor), so the count is the one a world that
// pushed every event would give.
func (s *Scheduler) Pending() int {
	s.payDebts()
	return len(s.timers.e) + s.queued
}

// Processed reports the number of events that have fired so far: those
// dispatched, and the reserved events the run has passed, which count
// as fired whether their debtor pushed them or did their work itself
// (see Reserve). Like Pending it has the debtors pay first, so the count
// is the one a world that pushed every event would give.
func (s *Scheduler) Processed() uint64 {
	s.payDebts()
	return s.fired()
}

// fired counts the events dispatched and credited.
func (s *Scheduler) fired() uint64 { return s.dispatched + s.credited }

// HeapHighWater reports the deepest the event queue — the timer heap
// and the heads of the non-empty lanes together — has been since the
// scheduler was made or Reset: the working-set figure the headline benchmarks
// publish alongside throughput. Events waiting behind a lane's head do
// not count; Pending includes them. Nor do reserved events, unless they
// are pushed.
func (s *Scheduler) HeapHighWater() int { return s.highWater }

// LaneCount reports how many lanes have been bound to the scheduler,
// shared or not: the bound on the lane-head half of the event queue,
// and what taking one event costs to scan.
func (s *Scheduler) LaneCount() int { return len(s.lanes) }

// SetGuard installs fn to be consulted after every processed event with
// the current time and the total processed count — the
// scheduler side of the overload guard (internal/guard). When fn
// returns a non-nil error the run stops after the in-flight event; the
// scheduler does not keep the error, the hook's owner does (see
// guard.Monitor.Err). A nil fn removes the hook; with no guard
// installed the loop pays a single nil check per event, so a
// guarded-but-untripped run processes the exact same event sequence as
// an unguarded one. It is the scheduler's one per-event hook. fn runs
// synchronously on the simulation goroutine and must not schedule or
// cancel events.
func (s *Scheduler) SetGuard(fn func(now Time, processed uint64) error) {
	s.payDebts()
	s.guard = fn
}

// ---- reserved keys ----------------------------------------------------------

// Reserve takes the key of an event due after d (a negative d is
// clamped to zero) without pushing it: the sequence number is taken
// exactly as a push would take it, so every other event keeps its key.
// The caller then owes the event. It settles the debt in one of two
// ways. Either it pushes the event under the key after all
// (Lanes.PushKey), while the run has not Passed it. Or, once the run
// has, it does itself what the event's handler would have done at
// k.At() and Credits the scheduler with the event.
//
// Reserve is for events that mostly would do nothing — a link's
// serialization completion that finds its queue empty — so that the
// scheduler need not dispatch them. The caller must be registered as a
// Debtor, which the scheduler has pay what it owes wherever the count
// of events is read (Processed, Pending, the end of a run) and before a
// guard, which reads it on every event, is installed. While a guard is
// installed (SetGuard) Reserve takes nothing and reports false: the
// caller pushes the event as usual, so that the guard sees every event
// fire.
func (s *Scheduler) Reserve(d Time) (Key, bool) {
	if s.guard != nil {
		return Key{}, false
	}
	s.owing++
	return s.take(d), true
}

// take returns the key of an event due after d (a negative d is clamped
// to zero), consuming one sequence number.
func (s *Scheduler) take(d Time) Key {
	k := Key{s.now + max(d, 0), s.nextSeq}
	s.nextSeq++
	return k
}

// Passed reports whether the run has passed the reserved key k: the
// event firing now, or the last one fired, sorts after it. An event
// that is passed would have fired already; one that is not would still
// fire after the event now firing, which is where a push under k puts
// it.
func (s *Scheduler) Passed(k Key) bool { return k.less(s.past) }

// Credit counts one reserved event whose key the run has passed as
// processed: its debtor did what the event would have done.
func (s *Scheduler) Credit() {
	s.credited++
	s.owing--
}

// Debtor is a source that reserves keys (see Reserve). PayDebts settles
// every event it owes: it credits the ones whose key the run has passed,
// having done their work, and pushes the rest under their keys.
type Debtor interface {
	PayDebts()
}

// AddDebtor registers d with the scheduler until the next Reset. A
// source with many parts registers once for all of them (a topology
// for its block of links), not once a part.
func (s *Scheduler) AddDebtor(d Debtor) { s.debtors = append(s.debtors, d) }

// payDebts has every debtor pay what it owes.
func (s *Scheduler) payDebts() {
	if s.owing == 0 {
		return
	}
	for _, d := range s.debtors {
		d.PayDebts()
	}
	if s.owing != 0 {
		panic(fmt.Sprintf("sim: %d reserved events owed by no registered Debtor", s.owing))
	}
}

// ---- heap + arena internals -------------------------------------------------

func (h *eventHeap) up(i int) {
	e, slots := h.e, h.slots
	x := e[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(e[p].Key) {
			break
		}
		e[i] = e[p]
		slots[e[i].idx].heapPos = int32(i)
		i = p
	}
	e[i] = x
	slots[x.idx].heapPos = int32(i)
}

func (h *eventHeap) down(i int) {
	e, slots := h.e, h.slots
	n := len(e)
	x := e[i]
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
			if e[c].less(e[best].Key) {
				best = c
			}
		}
		if !e[best].less(x.Key) {
			break
		}
		e[i] = e[best]
		slots[e[i].idx].heapPos = int32(i)
		i = best
	}
	e[i] = x
	slots[x.idx].heapPos = int32(i)
}

func (h *eventHeap) push(x heapEntry) {
	h.e = append(h.e, x)
	h.up(len(h.e) - 1)
}

// rekey replaces the entry at position i with x (same owner, new key):
// one sift instead of a remove-then-push. That is safe for determinism
// because pop order depends only on the (time, seq) keys of the live
// entries, never on how they got there.
func (h *eventHeap) rekey(i int, x heapEntry) {
	old := h.e[i]
	h.e[i] = x
	if x.less(old.Key) {
		h.up(i)
	} else {
		h.down(i)
	}
}

// remove deletes the entry at position i (0 is the minimum) and marks
// its owner idle.
func (h *eventHeap) remove(i int) {
	e := h.e
	n := len(e) - 1
	h.slots[e[i].idx].heapPos = -1
	h.e = e[:n]
	if i < n {
		h.rekey(i, e[n])
	}
}

// pushed updates the high-water mark after a timer was armed or a lane
// got its first event.
func (s *Scheduler) pushed() {
	if d := len(s.timers.e) + s.busy; d > s.highWater {
		s.highWater = d
	}
}

// armSlot enqueues slot i's handler at absolute instant t, consuming
// one sequence number. A slot that is already pending is re-keyed in
// place.
func (s *Scheduler) armSlot(i int32, t Time) error {
	if t < s.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrScheduleInPast, t, s.now)
	}
	x := heapEntry{Key{t, s.nextSeq}, i}
	s.nextSeq++
	if pos := s.timers.slots[i].heapPos; pos >= 0 {
		s.timers.rekey(int(pos), x)
		return nil
	}
	s.timers.push(x)
	s.pushed()
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
	var batch uint64 // events dispatched since the last global-counter flush
	defer s.flushEvents()
	for !s.stopped {
		// The next event is the earliest lane head or the timer heap's
		// minimum, whichever is smaller. Keys are unique (every arm and
		// push takes its own sequence number), so the merge is exactly
		// the order one heap would give.
		lane, top := -1, noHead
		for i, h := range s.heads {
			if h.less(top) {
				lane, top = i, h
			}
		}
		if t := s.timers.e; len(t) > 0 && t[0].less(top) {
			lane, top = -1, t[0].Key
		}
		// The run ends for want of events or at until. A reserved event is
		// not in the queue, so first the debtors push what they still owe;
		// those events due by until then fire as they would have.
		if top.at > until || top == noHead {
			if s.owing > 0 {
				s.payDebts()
				continue
			}
			if top == noHead {
				break
			}
			s.now = until
			return
		}
		s.now, s.past = top.at, top
		s.dispatched++
		if batch++; batch == globalFlushEvery {
			batch = 0
			s.flushEvents()
		}
		if lane >= 0 {
			s.lanes[lane].fire()
		} else {
			// The slot reads idle before its handler runs, so the
			// handler can re-arm its own timer.
			idx := s.timers.e[0].idx
			s.timers.remove(0)
			s.timers.slots[idx].fn()
		}
		if s.guard != nil {
			if s.guard(s.now, s.fired()) != nil {
				s.stopped = true
			}
		}
	}
	// A stopped run leaves debts: what it passed is settled, the rest
	// pushed.
	s.payDebts()
	if !s.stopped && advanceClock && s.now < until {
		s.now = until
	}
}

// CountPacket records one transmitted packet against this scheduler's
// world; packet sources (netem links) call it as they serialize. The
// count reaches the process-wide total at the next flush.
func (s *Scheduler) CountPacket() { s.unflushedPackets++ }

// flushEvents moves the scheduler's event and packet counts into the
// process-wide totals.
func (s *Scheduler) flushEvents() {
	if n := s.fired(); n > s.flushed {
		globalEvents.Add(n - s.flushed)
		s.flushed = n
	}
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
// timer owns its arena slot until the scheduler is Reset, so create
// timers per long-lived event source (or pool them), not per arm.
func (s *Scheduler) NewTimer(fn func()) *Timer {
	s.timers.slots = append(s.timers.slots, slot{fn: fn, heapPos: -1})
	t := s.handles.carve()
	t.s, t.slot = s, int32(len(s.timers.slots)-1)
	return t
}

// sched returns the timer's scheduler. A handle Reset zeroed has none.
func (t *Timer) sched() *Scheduler {
	if t.s == nil {
		panic("sim: Timer used after its Scheduler was Reset")
	}
	return t.s
}

// At arms the timer to fire at the absolute instant at, replacing any
// pending expiry. Arming before the current simulated time returns
// ErrScheduleInPast and leaves the timer stopped.
func (t *Timer) At(at Time) error {
	if err := t.sched().armSlot(t.slot, at); err != nil {
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
	t.At(t.sched().now + d) //nolint:errcheck // now+d with d >= 0 is never in the past
}

// Stop disarms the timer if it is pending. Stopping an expired or
// already-stopped timer is a no-op.
func (t *Timer) Stop() {
	s := t.sched()
	if pos := s.timers.slots[t.slot].heapPos; pos >= 0 {
		s.timers.remove(int(pos))
	}
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool {
	return t.sched().timers.slots[t.slot].heapPos >= 0
}

// ExpiresAt reports when the timer will fire; valid only when Armed.
func (t *Timer) ExpiresAt() Time {
	s := t.sched()
	pos := s.timers.slots[t.slot].heapPos
	if pos < 0 {
		return 0
	}
	return s.timers.e[pos].at
}

// timerBlocks carves Timer handles from blocks, so a world of many
// flows makes a score of allocations for its timers rather than one
// each. A new block is half as large as all the handles carved before
// it, between 8 and maxTimerBlock, so at most a third of the handles
// made go unused. Reset zeroes every handle carved and carving starts
// again from the first block.
type timerBlocks struct {
	blocks [][]Timer
	next   int     // blocks[next] is the block carved after rest
	rest   []Timer // the uncarved rest of blocks[next-1]
	carved int
}

const maxTimerBlock = 1024

func (b *timerBlocks) carve() *Timer {
	if len(b.rest) == 0 {
		if b.next == len(b.blocks) {
			b.blocks = append(b.blocks, make([]Timer, min(max(b.carved/2, 8), maxTimerBlock)))
		}
		b.rest = b.blocks[b.next]
		b.next++
	}
	t := &b.rest[0]
	b.rest = b.rest[1:]
	b.carved++
	return t
}

func (b *timerBlocks) reset() {
	for _, blk := range b.blocks[:b.next] {
		clear(blk)
	}
	b.next, b.rest, b.carved = 0, nil, 0
}
