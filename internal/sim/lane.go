package sim

// laneFirer is the scheduler's view of a Lane[T] of any payload type.
type laneFirer interface {
	fire()
	unbind()
}

// laneSet is the scheduler's view of a Lanes[T] of any payload type.
type laneSet interface {
	unbind()
}

// laneEvent is one event waiting on a lane: its reserved (time, sequence)
// key and the payload its handler receives.
type laneEvent[T any] struct {
	Key
	val T
}

// Lane is a FIFO event source bound to a scheduler — the building block
// for pipelines whose events are never cancelled, such as the packets
// propagating on a link. Every Push fires the handler exactly once, with
// the pushed payload, in (time, sequence) order; there is no Stop. Only
// the lane's earliest event occupies the event queue, so a lane costs
// the scheduler one head to scan however many events wait behind it, and
// pushing behind a pending head touches the ring alone.
//
// Each Push takes one sequence number, exactly as arming a Timer does,
// so replacing per-event timers with a lane leaves the global firing
// order unchanged: a lane keeps its events sorted by that key, its head
// is their minimum, and pop order depends only on keys.
type Lane[T any] struct {
	s  *Scheduler
	id int // index of the lane, and of its head, in the scheduler
	fn func(T)

	// Ring of waiting events, sorted by (at, seq); capacity is a power
	// of two, eight on the first Push and doubled as the lane fills.
	buf  []laneEvent[T]
	head int
	n    int
}

// Init binds an empty lane to s and sets the handler run for each pushed
// event. A lane is a value its owner embeds; the scheduler keeps a
// pointer to it, so it must be initialised once, in place, and not
// copied afterwards. Like a Timer, a lane belongs to its scheduler until
// the scheduler is Reset: have one per long-lived event source, or,
// where many sources push with few distinct delays (a world's links),
// share a Lanes set among them.
func (l *Lane[T]) Init(s *Scheduler, fn func(T)) {
	*l = Lane[T]{}
	l.bind(s, fn)
}

// bind adds an empty lane to s, keeping whatever ring it has.
func (l *Lane[T]) bind(s *Scheduler, fn func(T)) {
	l.s, l.id, l.fn = s, len(s.lanes), fn
	s.lanes = append(s.lanes, l)
	s.heads = append(s.heads, noHead)
}

// unbind empties the lane and detaches it from its scheduler, keeping
// its ring; Scheduler.Reset calls it. Pushing on an unbound lane panics.
func (l *Lane[T]) unbind() {
	clear(l.buf)
	l.s, l.fn, l.head, l.n = nil, nil, 0, 0
}

// Push schedules fn(v) to run after d (a negative d is clamped to zero).
// Deadlines normally arrive in order and the event joins the tail; one
// due before events already waiting (a propagation delay lowered
// mid-flight) is inserted where its key sorts, so the lane fires in the
// order separate timers would have.
func (l *Lane[T]) Push(d Time, v T) { l.insert(l.s.take(d), v) }

// insert adds the event keyed k where the key sorts. A new event has the
// largest sequence number yet and mostly the latest time, so the search
// starts at the tail.
func (l *Lane[T]) insert(k Key, v T) {
	s := l.s
	s.queued++
	if l.n == len(l.buf) {
		l.grow()
	}
	mask := len(l.buf) - 1
	i := l.n
	for ; i > 0; i-- {
		prev := &l.buf[(l.head+i-1)&mask]
		if prev.less(k) {
			break
		}
		l.buf[(l.head+i)&mask] = *prev
	}
	// Written field by field into the ring: building the event first and
	// copying it in reloads 16 bytes just stored as two words, a
	// store-forwarding stall on every push.
	ev := &l.buf[(l.head+i)&mask]
	ev.at, ev.seq, ev.val = k.at, k.seq, v
	l.n++
	if i > 0 {
		return // still behind the head
	}
	s.heads[l.id] = k
	if l.n == 1 {
		s.busy++
		s.pushed()
	}
}

// fire runs the head event. The scheduler calls it when the lane's head
// is the earliest event pending; the next head replaces it before the
// handler runs, so a handler that pushes onto its own lane sees it
// consistent.
func (l *Lane[T]) fire() {
	s := l.s
	mask := len(l.buf) - 1
	ev := &l.buf[l.head]
	v := ev.val
	var zero T
	ev.val = zero // drop the ring's reference to the payload
	l.head = (l.head + 1) & mask
	l.n--
	s.queued--
	if l.n > 0 {
		s.heads[l.id] = l.buf[l.head].Key
	} else {
		s.heads[l.id] = noHead
		s.busy--
	}
	l.fn(v)
}

func (l *Lane[T]) grow() {
	buf := make([]laneEvent[T], max(2*len(l.buf), 8))
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf, l.head = buf, 0
}

// Lanes is a scheduler's set of lanes for one kind of event, shared by
// every source of that kind and keyed by the delay being pushed. Events
// pushed with one delay are due in the order they were pushed, whoever
// pushed them, so each lane only ever appends and the event queue holds
// one entry per distinct delay pending rather than one per source: a
// world of thousands of links with a few rates and packet sizes keeps a
// handful of lanes. Firing order is Lane.Push's guarantee and does not
// depend on how events are spread over lanes.
type Lanes[T any] struct {
	s     *Scheduler
	fn    func(T) // nil while unbound by a Reset
	lanes []*DelayLane[T]
	// spare holds the lanes of the world before the last Reset, rings
	// kept, until the set needs them again.
	spare []*DelayLane[T]
}

// DelayLane is one lane of a Lanes set and the delay its waiting events
// were all pushed with.
type DelayLane[T any] struct {
	lane  Lane[T]
	delay Time
}

// LanesOf returns s's set of lanes with payload type T, made on the
// first call with fn as the handler of every event pushed on it. There
// is one set per payload type and scheduler, so a kind of event has a
// payload type of its own. A set survives Reset with its lanes' rings;
// the first call after it gives the set fn again.
func LanesOf[T any](s *Scheduler, fn func(T)) *Lanes[T] {
	for _, v := range s.laneSets {
		if ls, ok := v.(*Lanes[T]); ok {
			if ls.fn == nil {
				ls.fn = fn
			}
			return ls
		}
	}
	ls := &Lanes[T]{s: s, fn: fn}
	s.laneSets = append(s.laneSets, ls)
	return ls
}

// unbind moves the set's lanes, which Reset has already emptied, to its
// spares.
func (ls *Lanes[T]) unbind() {
	ls.spare = append(ls.spare, ls.lanes...)
	clear(ls.lanes)
	ls.lanes, ls.fn = ls.lanes[:0], nil
}

// Push schedules fn(v) to run after d, exactly as Lane.Push does, on the
// set's lane for d, and returns that lane. A source passes back the lane
// its previous push returned (nil at first), which is the right one
// again unless d changed or the lane drained and was given to another
// delay.
func (ls *Lanes[T]) Push(last *DelayLane[T], d Time, v T) *DelayLane[T] {
	if last == nil || last.delay != d {
		last = ls.lane(d)
	}
	last.lane.insert(ls.s.take(d), v)
	return last
}

// PushKey schedules fn(v) to run at the reserved key k (see
// Scheduler.Reserve), which the run must not have passed, on the set's
// lane for d, and returns that lane as Push does. d is the delay k was
// reserved with; the event is inserted where k sorts among the lane's
// waiting events, which may have been pushed after k was reserved.
func (ls *Lanes[T]) PushKey(last *DelayLane[T], d Time, k Key, v T) *DelayLane[T] {
	if last == nil || last.delay != d {
		last = ls.lane(d)
	}
	ls.s.owing--
	last.lane.insert(k, v)
	return last
}

// lane finds the lane keyed d. When there is none an empty lane is
// re-keyed before another is bound, a spare before a new one, so the set
// never has more lanes than distinct delays have been pending at once.
func (ls *Lanes[T]) lane(d Time) *DelayLane[T] {
	var idle *DelayLane[T]
	for _, l := range ls.lanes {
		if l.delay == d {
			return l
		}
		if l.lane.n == 0 {
			idle = l
		}
	}
	if idle == nil {
		if n := len(ls.spare); n > 0 {
			idle = ls.spare[n-1]
			ls.spare[n-1] = nil
			ls.spare = ls.spare[:n-1]
		} else {
			idle = new(DelayLane[T])
		}
		idle.lane.bind(ls.s, ls.fn)
		ls.lanes = append(ls.lanes, idle)
	}
	idle.delay = d
	return idle
}
