// Package telemetry is the structured observability layer of the
// simulator: a lightweight event bus that the scheduler, the network
// substrate, the TCP senders, and the RR state machine publish typed
// events into, plus the sinks that consume them (NDJSON log writer,
// in-memory ring for tests, metrics aggregation).
//
// The paper's central claims — actnum tracks data in flight more
// accurately than cwnd, back-off happens only in the retreat sub-phase,
// further losses are detected by comparing ndup to actnum — are claims
// about internal state evolution over time; this package makes that
// evolution observable without each experiment growing its own ad-hoc
// sampler.
//
// Design notes:
//
//   - Event is a small value type with fixed slots (two numeric
//     attributes named per kind); publishing allocates nothing.
//   - A nil *Bus, and a Bus with no subscribers, are both valid and
//     publish nothing, so instrumented hot paths cost a nil check when
//     telemetry is off (the "null sink" default).
//   - All publishing happens on the single simulation goroutine; sinks
//     need no locking.
package telemetry

import "rrtcp/internal/sim"

// Component identifies the layer an event originates from.
type Component uint8

// Components, one per instrumented layer.
const (
	_             Component = iota + 1 // retired ("sim", the scheduler profile); later components keep their numbers
	CompLink                           // a netem link
	CompQueue                          // a netem queue discipline
	CompLoss                           // a netem loss injector
	CompSender                         // the shared TCP sender path
	CompRecv                           // the TCP receiver
	CompRR                             // the Robust Recovery state machine
	CompFault                          // a fault injector (internal/faults)
	CompInvariant                      // the runtime invariant checker
	CompSweep                          // the parallel sweep engine (internal/sweep)
	CompGuard                          // the overload guard (internal/guard)
	CompTelemetry                      // the telemetry layer itself (BoundedSink drop accounting)

	compSentinel // keep last
)

// compNames is the NDJSON vocabulary of components, indexed by value.
var compNames = [compSentinel]string{
	CompLink:      "link",
	CompQueue:     "queue",
	CompLoss:      "loss",
	CompSender:    "sender",
	CompRecv:      "recv",
	CompRR:        "rr",
	CompFault:     "fault",
	CompInvariant: "invariant",
	CompSweep:     "sweep",
	CompGuard:     "guard",
	CompTelemetry: "telemetry",
}

// String implements fmt.Stringer.
func (c Component) String() string {
	if c >= compSentinel || compNames[c] == "" {
		return "?"
	}
	return compNames[c]
}

// ParseComponent is the inverse of Component.String; unknown names
// return 0, and nothing parses to the retired slot.
func ParseComponent(s string) Component {
	for c := CompLink; c < compSentinel; c++ {
		if c.String() == s {
			return c
		}
	}
	return 0
}

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	// Sender-path events.
	KSend       Kind = iota + 1 // data segment first transmission
	KRetransmit                 // data segment retransmission
	KAck                        // cumulative ACK processed at the sender
	KDupAck                     // duplicate ACK processed
	KTimeout                    // retransmission timer expired
	KCwnd                       // congestion-window sample (A=cwnd)
	KFlowDone                   // application transfer completed
	KDeliver                    // in-order data delivered at the receiver

	// Recovery phase transitions (RR and the baseline variants).
	KRecoveryEnter // entered loss recovery; RR: begin retreat (A=cwnd, B=ssthresh)
	KRetreatProbe  // RR retreat→probe transition (A=actnum)
	KRecoveryExit  // left recovery (A=cwnd; RR: cwnd = actnum×MSS)
	KFurtherLoss   // RR detected further loss via ndup<actnum (A=actnum, B=ndup)
	KActnum        // RR actnum/ndup update at an RTT boundary (A=actnum, B=ndup)

	// Network-substrate events.
	KEnqueue // packet accepted by a queue (A=occupancy after)
	KDrop    // packet dropped by a queue or loss module (A=occupancy, B=1 forced)
	KMark    // packet probabilistically dropped/marked by RED (A=occupancy, B=avg)
	KLinkTx  // link began serializing a packet (A=bytes, B=occupancy left behind)

	_ // retired ("sched", the wall-clock scheduler profile); later kinds keep their numbers

	// Fault-injection events (internal/faults and the netem hook points).
	KLinkDown     // link carrier lost (flap begins)
	KLinkUp       // link carrier restored (flap ends)
	KLinkParam    // mid-flow renegotiation (A=bandwidth bps, B=delay seconds)
	KFaultReorder // packet held back for out-of-order delivery (A=extra delay s)
	KFaultDup     // packet duplicated in flight
	KAckCompress  // held ACK batch released back-to-back (A=batch size)

	// Invariant checking.
	KViolation // runtime invariant violated (Src=rule name)

	// Sweep-engine progress. These fire on the sweep's coordinating
	// goroutine, between simulations rather than inside one, so their
	// At field is always zero. KSweepJob arrives in completion order,
	// which is scheduling-dependent: progress streams are exempt from
	// the sweep determinism contract.
	KSweepStart // sweep began (Src=sweep name, A=jobs, B=workers)
	KSweepJob   // one job finished (Src=job name, Seq=job index, A=completed, B=total)
	KSweepDone  // sweep finished (Src=sweep name, A=jobs, B=wall seconds)

	// Periodic gauge sampling (the Sampler). Src names the gauge
	// ("cwnd", "srtt", "qlen", ...); Flow scopes it to a connection or
	// NoFlow for instance gauges; A is the sampled value.
	KSample

	// Sweep-engine performance telemetry. Like the progress kinds these
	// fire on the coordinating goroutine with wall-clock measurements,
	// so they are exempt from the determinism contract.
	KSweepJobTime // one job's wall time (Src=job name, Seq=index, A=wall seconds, B=worker)
	KSweepWorker  // one worker's totals at sweep end (Src=worker index, A=busy seconds, B=jobs run)

	// Sweep-engine resilience telemetry: the harness watching itself.
	// Like the other sweep kinds it fires on the coordinating goroutine
	// with wall-clock measurements, exempt from the determinism
	// contract.
	KSweepStall // an in-flight job exceeded the stall threshold (Src=job name, Seq=index, A=running seconds, B=worker)
	// Retired slot (it was "sweep-retry"): kinds are JSON-encoded as
	// numbers in chaos repro bundles and checkpoint journals, so every
	// later kind keeps its number. The slot has no name and parses from
	// none.
	_

	// Overload guardrails (internal/guard and the BoundedSink).
	// KOverload fires on the simulation goroutine at the instant a
	// resource budget trips (Src=resource name, A=observed, B=limit).
	// KTelemetryDrops is the BoundedSink's drop accounting marker,
	// injected into its downstream sink so thinned logs say how much is
	// missing (Src=sink label, A=cumulative dropped, B=cumulative kept).
	// KSweepDegraded fires on the sweep coordinator when a job's budget
	// trip is converted into a Degraded result (Src=job name, Seq=index);
	// like the other sweep kinds it is exempt from the determinism
	// contract.
	KOverload
	KTelemetryDrops
	KSweepDegraded

	// Flow lifecycle accounting (the FlowReporter hook in the TCP
	// sender, consumed by flowstats.FlowTable). KFlowStart fires when a
	// sender begins transmitting (Src=variant name, A=application bytes
	// to send, -1 for unbounded). KFlowStats fires alongside KFlowDone
	// when the transfer completes, carrying the per-flow counters the
	// aggregate layer needs without retaining the event stream
	// (Src=variant name, Seq=bytes acknowledged, A=retransmissions,
	// B=timeouts).
	KFlowStart
	KFlowStats

	kindSentinel // keep last
)

// kindInfo is one kind's NDJSON vocabulary: its name and the keys its A
// and B slots are written under (empty: the slot is unused).
type kindInfo struct{ name, a, b string }

var kindTable = [kindSentinel]kindInfo{
	KSend:           {name: "send"},
	KRetransmit:     {name: "rtx"},
	KAck:            {name: "ack"},
	KDupAck:         {name: "dupack"},
	KTimeout:        {name: "timeout"},
	KCwnd:           {name: "cwnd", a: "cwnd"},
	KFlowDone:       {name: "done"},
	KDeliver:        {name: "deliver"},
	KRecoveryEnter:  {name: "recovery-enter", a: "cwnd", b: "ssthresh"},
	KRetreatProbe:   {name: "retreat-probe", a: "actnum"},
	KRecoveryExit:   {name: "recovery-exit", a: "cwnd"},
	KFurtherLoss:    {name: "further-loss", a: "actnum", b: "ndup"},
	KActnum:         {name: "actnum", a: "actnum", b: "ndup"},
	KEnqueue:        {name: "enqueue", a: "qlen"},
	KDrop:           {name: "drop", a: "qlen", b: "forced"},
	KMark:           {name: "mark", a: "qlen", b: "avg"},
	KLinkTx:         {name: "link-tx", a: "bytes", b: "qlen"},
	KLinkDown:       {name: "link-down"},
	KLinkUp:         {name: "link-up"},
	KLinkParam:      {name: "link-param", a: "bps", b: "delay_s"},
	KFaultReorder:   {name: "reorder", a: "delay_s"},
	KFaultDup:       {name: "dup-inject"},
	KAckCompress:    {name: "ack-compress", a: "batch"},
	KViolation:      {name: "violation"},
	KSweepStart:     {name: "sweep-start", a: "jobs", b: "workers"},
	KSweepJob:       {name: "sweep-job", a: "completed", b: "total"},
	KSweepDone:      {name: "sweep-done", a: "jobs", b: "wall_s"},
	KSample:         {name: "sample", a: "value"},
	KSweepJobTime:   {name: "sweep-job-time", a: "wall_s", b: "worker"},
	KSweepWorker:    {name: "sweep-worker", a: "busy_s", b: "jobs"},
	KSweepStall:     {name: "sweep-stall", a: "running_s", b: "worker"},
	KOverload:       {name: "overload", a: "observed", b: "limit"},
	KTelemetryDrops: {name: "telemetry-drops", a: "dropped", b: "kept"},
	KSweepDegraded:  {name: "sweep-degraded"},
	KFlowStart:      {name: "flow-start", a: "bytes"},
	KFlowStats:      {name: "flow-done", a: "rtx", b: "timeouts"},
}

// String implements fmt.Stringer; the names are the NDJSON vocabulary.
func (k Kind) String() string {
	if k >= kindSentinel || kindTable[k].name == "" {
		return "?"
	}
	return kindTable[k].name
}

// kindByName inverts kindTable's names; a retired slot's empty name is
// not a name.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, kindSentinel)
	for k := KSend; k < kindSentinel; k++ {
		if name := kindTable[k].name; name != "" {
			m[name] = k
		}
	}
	return m
}()

// ParseKind is the inverse of Kind.String; unknown names return 0.
func ParseKind(s string) Kind { return kindByName[s] }

// attrNames maps each kind's A and B slots to the NDJSON keys they are
// written under. Empty means the slot is unused for that kind.
func (k Kind) attrNames() (a, b string) {
	if k >= kindSentinel {
		return "", ""
	}
	return kindTable[k].a, kindTable[k].b
}

// NoFlow marks events not scoped to a TCP connection (queues, links,
// sweeps).
const NoFlow int32 = -1

// Event is one telemetry record. It is a plain value: publishing one
// performs no allocation, and sinks that retain events copy them.
type Event struct {
	// At is the simulated instant of the event.
	At sim.Time
	// Comp is the emitting layer; Src distinguishes instances within it
	// (queue and link names like "fwd", "rev").
	Comp Component
	Kind Kind
	Src  string
	// Flow is the TCP connection the event belongs to, or NoFlow.
	Flow int32
	// Seq is the byte sequence number involved, when meaningful.
	Seq int64
	// A and B carry kind-specific numeric attributes; see attrNames.
	A, B float64
}

// Sink consumes published events. Emit runs on the simulation
// goroutine and must not retain pointers into the event (it is a value,
// so copying it is safe and implicit).
type Sink interface {
	Emit(ev Event)
}

// Bus fans events out to its subscribers. A nil *Bus is valid and
// publishes nothing, which is the default "null" configuration — the
// instrumented hot paths then cost one nil check per event site.
type Bus struct {
	sinks []Sink
	// on caches len(sinks) > 0 so Enabled is a single flag load — the
	// hot-path publish gate instrumented code checks per event.
	on bool
}

// NewBus returns a bus with the given initial subscribers.
func NewBus(sinks ...Sink) *Bus {
	b := &Bus{}
	for _, s := range sinks {
		b.Subscribe(s)
	}
	return b
}

// Subscribe adds a sink; nil sinks are ignored.
func (b *Bus) Subscribe(s Sink) {
	if b == nil || s == nil {
		return
	}
	b.sinks = append(b.sinks, s)
	b.on = true
}

// Enabled reports whether publishing reaches any sink; hot paths can
// use it to skip building expensive events.
func (b *Bus) Enabled() bool { return b != nil && b.on }

// Publish delivers ev to every subscriber, in subscription order.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	for _, s := range b.sinks {
		s.Emit(ev)
	}
}

// Segmenter splits an event stream into segments: a new one starts
// whenever sim time regresses. That is how a republished multi-run
// stream shows its run boundaries — a sweep forwards each job's capture
// in job order, every run starting over at t=0 — and every consumer
// that must not merge two runs (SpanSink, SeriesSink, MetricsSink,
// SummarySink's flow rows and episodes, TimelineSink, flowstats.FlowTable)
// counts segments with this one rule. Sweep progress events are stamped
// t=0 on the coordinating goroutine between runs; they are on no run's
// clock and never move it, and their one fold, SweepStats.apply, splits
// the stream at sweep-start instead. The zero value is ready: segment 0,
// clock at 0.
type Segmenter struct {
	Seg  int      // index of the current segment
	Last sim.Time // time of the latest event observed
}

// Regressed reports whether ev would start a new segment. A consumer
// with per-segment state to close calls it before Advance, while Seg and
// Last still describe the segment that ends. Both methods take the event
// by pointer: inlined into a sink's Emit, a by-value Event would be
// copied on every call, which costs more than the two fields they read.
func (s *Segmenter) Regressed(ev *Event) bool { return ev.At < s.Last && ev.Comp != CompSweep }

// Advance moves the clock to ev, rolling the segment if time regressed.
func (s *Segmenter) Advance(ev *Event) {
	if ev.Comp == CompSweep {
		return
	}
	if ev.At < s.Last {
		s.Seg++
	}
	s.Last = ev.At
}

// NullSink discards everything — the explicit form of the default.
type NullSink struct{}

// Emit implements Sink.
func (NullSink) Emit(Event) {}

// Ring retains the last Cap events in memory; with Cap <= 0 it retains
// everything. It is the sink tests and in-process inspection use.
type Ring struct {
	// Cap bounds retention; zero or negative means unbounded.
	Cap int

	evs   []Event        // Cap > 0: the ring, allocated at exactly Cap on first Emit
	all   Chunked[Event] // Cap <= 0: every event
	start int            // ring head when wrapped
	total uint64
}

// NewRing returns a ring retaining at most cap events (<=0: unbounded).
func NewRing(cap int) *Ring { return &Ring{Cap: cap} }

// Emit implements Sink.
func (r *Ring) Emit(ev Event) {
	r.total++
	switch {
	case r.Cap <= 0:
		r.all.Append(ev)
	case len(r.evs) < r.Cap:
		if r.evs == nil {
			r.evs = make([]Event, 0, r.Cap)
		}
		r.evs = append(r.evs, ev)
	default:
		r.evs[r.start] = ev
		r.start = (r.start + 1) % r.Cap
	}
}

// Reset empties the ring, keeping its storage: it then reads and fills
// as NewRing(r.Cap) would, without allocating what it held before.
// Slices its readers returned are copies and stay valid.
func (r *Ring) Reset() {
	clear(r.evs)
	r.evs = r.evs[:0]
	r.all.Reset()
	r.start, r.total = 0, 0
}

// Total reports how many events were published, including evicted ones.
func (r *Ring) Total() uint64 { return r.total }

// runs returns the retained events in publication order as the
// contiguous runs they are stored in, to be read in place.
func (r *Ring) runs() [][]Event {
	if r.Cap <= 0 {
		return r.all.Chunks()
	}
	return [][]Event{r.evs[r.start:], r.evs[:r.start]}
}

// Events returns the retained events in publication order.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.evs)+r.all.Len())
	for _, run := range r.runs() {
		out = append(out, run...)
	}
	return out
}

// EventsOf returns the retained events matching the kind, in order.
// It counts matches first and allocates the result exactly once,
// walking the stored runs in place rather than materializing a full
// copy via Events.
func (r *Ring) EventsOf(kind Kind) []Event {
	runs := r.runs()
	n := 0
	for _, run := range runs {
		for i := range run {
			if run[i].Kind == kind {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	for _, run := range runs {
		for i := range run {
			if run[i].Kind == kind {
				out = append(out, run[i])
			}
		}
	}
	return out
}
