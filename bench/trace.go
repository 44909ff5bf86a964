package main

import (
	"time"
)

// spanName identifies a layer boundary the benchmark times from outside.
type spanName uint8

// Phase spans are opened with begin/end and always recorded. Hot spans
// sit on per-packet and per-event paths, are opened with enter/exit, and
// are sampled: one top-level hot call in tracer.every is timed together
// with every hot call nested inside it; all calls are counted.
const (
	spanRound spanName = iota
	spanBuild
	spanInstall
	spanRun
	spanExperiment
	spanJobs
	spanSweep
	spanJob
	spanReduce
	spanRender

	spanCoreSender // ACK delivered to an RR sender
	spanTCPSender  // ACK delivered to any other sender
	spanReceiver   // data packet delivered to a receiver
	spanDataPort   // sender transmitting into its side link
	spanAckPort    // receiver transmitting into its side link
	spanFwdEntry   // side link delivering into the forward bottleneck
	spanRevEntry   // side link delivering into the reverse bottleneck
	spanSinkNDJSON
	spanSinkFlowTable
	spanSinkSpan

	numSpanNames
	firstHotSpan = spanCoreSender
)

var spanNames = [numSpanNames]string{
	"round", "netem.build", "workload.install", "sim.run", "experiments.experiment",
	"experiments.jobs", "sweep.run", "sweep.job", "experiments.reduce", "experiments.render",
	"core.sender", "tcp.sender", "tcp.receiver", "netem.port.data", "netem.port.ack",
	"netem.entry.fwd", "netem.entry.rev", "telemetry.ndjson", "telemetry.flowtable", "telemetry.span",
}

// sinkSpans names the wrapped sinks of the telemetry10 bus, in
// subscription order.
var sinkSpans = [...]spanName{spanSinkNDJSON, spanSinkFlowTable, spanSinkSpan}

func (n spanName) hot() bool { return n >= firstHotSpan }

// span is one timed interval; times are nanoseconds since the tracer's
// epoch and parent indexes the tracer's span list (-1: none).
type span struct {
	name       spanName
	parent     int32
	round      int32
	start, end int64
}

// spanRecord is a span as -trace-out writes it.
type spanRecord struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Round    int32  `json:"round"`
	ID       int    `json:"id"`
	Parent   int32  `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer records spans in memory on the simulation goroutine. A nil
// tracer is valid for begin/end and records nothing, so the round code
// is the same traced and untraced; enter/exit are only ever reached
// through shims, which exist only with a tracer.
type tracer struct {
	epoch time.Time
	spans []span
	// scope is the innermost open phase span.
	scope int32
	// stack holds the open sampled hot spans; skip is the nesting depth
	// inside a top-level hot call that was not sampled.
	stack []int32
	skip  int
	every uint64
	round int32
	cal   calibration
	// calls and sampled count hot calls per name since startRound.
	calls, sampled [numSpanNames]uint64
}

// sampleEvery is the hot-span sampling period: timing every call would
// cost more than most of the calls being timed.
const sampleEvery = 16

func newTracer(every uint64, cal calibration) *tracer {
	return &tracer{epoch: time.Now(), scope: -1, every: every, cal: cal, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: t.scope, round: t.round, start: t.now()})
	t.scope = int32(len(t.spans) - 1)
	return t.scope
}

func (t *tracer) end(idx int32) {
	if t == nil || idx < 0 {
		return
	}
	t.spans[idx].end = t.now()
	t.scope = t.spans[idx].parent
}

// add records an interval timed elsewhere (a sweep job on a worker
// goroutine) under the open phase span.
func (t *tracer) add(name spanName, start, end int64) {
	t.spans = append(t.spans, span{name: name, parent: t.scope, round: t.round, start: start, end: end})
}

// enter opens a hot span and reports whether it is being recorded;
// hand the answer to exit.
func (t *tracer) enter(name spanName) bool {
	t.calls[name]++
	if t.skip > 0 {
		t.skip++
		return false
	}
	parent := t.scope
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else if t.calls[name]%t.every != 0 {
		t.skip = 1
		return false
	}
	t.sampled[name]++
	t.spans = append(t.spans, span{name: name, parent: parent, round: t.round, start: t.now()})
	t.stack = append(t.stack, int32(len(t.spans)-1))
	return true
}

func (t *tracer) exit(recorded bool) {
	if !recorded {
		t.skip--
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].end = t.now()
	t.stack = t.stack[:n]
}

// startRound resets the per-round call counts and returns the index the
// round's spans start at.
func (t *tracer) startRound() int {
	t.calls, t.sampled = [numSpanNames]uint64{}, [numSpanNames]uint64{}
	return len(t.spans)
}

// finishRound reduces the spans recorded since from, then either keeps
// them (for -trace-out) or drops them to bound memory.
func (t *tracer) finishRound(from int, keep bool) roundSpans {
	rs := roundSpans{calls: t.calls, sampled: t.sampled, cal: t.cal}
	rs.self, rs.total = selfTimes(t.spans[from:], from, t.cal)
	if !keep {
		t.spans = t.spans[:from]
	}
	t.round++
	return rs
}

func (t *tracer) records(workload string) []spanRecord {
	out := make([]spanRecord, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanRecord{workload, spanNames[s.name], s.round, i, s.parent, s.start, s.end}
	}
	return out
}

// calibration is the measured cost of the tracer itself, in ns.
type calibration struct {
	// inner is how long an empty recorded span reads (end - start).
	inner float64
	// full is the wall cost of one recorded enter/exit pair.
	full float64
	// skip is the wall cost of one unrecorded enter/exit pair.
	skip float64
}

// calibrate times empty spans: recorded ones for inner and full,
// unrecorded ones for skip.
func calibrate() calibration {
	const n = 200000
	var cal calibration
	t := newTracer(1, cal)
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.exit(t.enter(spanReceiver))
	}
	cal.full = float64(time.Since(start)) / n
	var sum int64
	for _, s := range t.spans {
		sum += s.end - s.start
	}
	cal.inner = float64(sum) / n

	t = newTracer(1<<62, cal)
	start = time.Now()
	for i := 0; i < n; i++ {
		t.exit(t.enter(spanReceiver))
	}
	cal.skip = float64(time.Since(start)) / n
	return cal
}

// selfTimes sums, per hot span name, the overhead-corrected total and
// self time of the recorded spans. base is the index spans[0] has in
// the tracer's list (parents are absolute indexes).
//
// A recorded span reads end-start = inner + its own work + for every
// hot descendant the descendant's work plus one full enter/exit pair.
// So total = raw - inner - full*descendants, and self = total minus the
// children's totals. Spans are appended at enter, so children follow
// their parent and one reverse pass visits children first.
func selfTimes(spans []span, base int, cal calibration) (self, total [numSpanNames]float64) {
	desc := make([]int32, len(spans))
	children := make([]float64, len(spans))
	for i := len(spans) - 1; i >= 0; i-- {
		s := spans[i]
		if !s.name.hot() {
			continue
		}
		tot := float64(s.end-s.start) - cal.inner - cal.full*float64(desc[i])
		if tot < 0 {
			tot = 0
		}
		own := tot - children[i]
		if own < 0 {
			own = 0
		}
		total[s.name] += tot
		self[s.name] += own
		if p := int(s.parent) - base; p >= 0 && spans[p].name.hot() {
			desc[p] += desc[i] + 1
			children[p] += tot
		}
	}
	return self, total
}

// roundSpans is one traced round reduced: per-name call counts and the
// corrected time of the sampled calls.
type roundSpans struct {
	calls, sampled [numSpanNames]uint64
	self, total    [numSpanNames]float64
	cal            calibration
}

// selfNs estimates the self time of every call of the names, scaling the
// sampled calls up to the counted ones.
func (rs *roundSpans) selfNs(names ...spanName) float64 {
	var ns float64
	for _, n := range names {
		if rs.sampled[n] > 0 {
			ns += rs.self[n] * float64(rs.calls[n]) / float64(rs.sampled[n])
		}
	}
	return ns
}

func (rs *roundSpans) count(names ...spanName) float64 {
	var c uint64
	for _, n := range names {
		c += rs.calls[n]
	}
	return float64(c)
}

// perCall is selfNs per counted call (0 when the names were never hit).
func (rs *roundSpans) perCall(names ...spanName) float64 {
	if c := rs.count(names...); c > 0 {
		return rs.selfNs(names...) / c
	}
	return 0
}

// overheadNs estimates what the tracer itself added to the round.
func (rs *roundSpans) overheadNs() float64 {
	var ns float64
	for n := firstHotSpan; n < numSpanNames; n++ {
		ns += float64(rs.sampled[n])*rs.cal.full + float64(rs.calls[n]-rs.sampled[n])*rs.cal.skip
	}
	return ns
}

// attributedNs is the scaled self time of every hot span: the part of a
// round's Run that ran inside a shim.
func (rs *roundSpans) attributedNs() float64 {
	var ns float64
	for n := firstHotSpan; n < numSpanNames; n++ {
		ns += rs.selfNs(n)
	}
	return ns
}
