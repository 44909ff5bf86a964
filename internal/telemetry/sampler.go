package telemetry

import (
	"io"
	"strconv"

	"rrtcp/internal/sim"
)

// GaugeSource is anything that can report named instantaneous gauges —
// the TCP sender (cwnd, ssthresh, srtt, rto, flight, actnum) and the
// queue disciplines (occupancy) implement it. The emit callback is
// invoked once per gauge per sample tick.
type GaugeSource interface {
	SampleGauges(emit func(gauge string, v float64))
}

// Sampler publishes periodic KSample events for a set of gauge sources
// on a fixed sim-time interval. The samples ride the same bus as the
// point events, so everything downstream of the bus — NDJSON logs, the
// ring-republish pattern that keeps parallel fig5 runs byte-identical,
// the SeriesSink — handles series without special cases.
//
// A nil *Sampler is a valid no-op: NewSampler returns nil when the bus
// is disabled, so callers attach unconditionally and pay nothing when
// telemetry is off.
type Sampler struct {
	sched *sim.Scheduler
	bus   *Bus
	every sim.Time
	timer *sim.Timer

	flows []samplerFlow
	insts []samplerInst
}

type samplerFlow struct {
	flow int32
	src  GaugeSource
}

type samplerInst struct {
	comp  Component
	label string
	src   GaugeSource
}

// NewSampler returns a sampler ticking every `every` of sim time, or
// nil when the bus is disabled or the interval is not positive.
func NewSampler(sched *sim.Scheduler, bus *Bus, every sim.Time) *Sampler {
	if sched == nil || !bus.Enabled() || every <= 0 {
		return nil
	}
	return &Sampler{sched: sched, bus: bus, every: every}
}

// AddFlow registers a connection-scoped source; its gauges are
// published with the given flow id and the gauge name as Src.
func (s *Sampler) AddFlow(flow int32, src GaugeSource) {
	if s == nil || src == nil {
		return
	}
	s.flows = append(s.flows, samplerFlow{flow: flow, src: src})
}

// AddInstance registers an instance-scoped source (a queue); gauges are
// published with NoFlow and Src = "<label>.<gauge>".
func (s *Sampler) AddInstance(comp Component, label string, src GaugeSource) {
	if s == nil || src == nil {
		return
	}
	s.insts = append(s.insts, samplerInst{comp: comp, label: label, src: src})
}

// Start schedules the first tick one interval from now. Ticking stops
// once every registered flow source that exposes Done() reports done,
// so the sampler never drags a finished run to the horizon.
func (s *Sampler) Start() {
	if s == nil || len(s.flows)+len(s.insts) == 0 {
		return
	}
	s.schedule()
}

func (s *Sampler) schedule() {
	if s.timer == nil {
		s.timer = s.sched.NewTimer(s.tick)
	}
	s.timer.Reset(s.every)
}

func (s *Sampler) tick() {
	now := s.sched.Now()
	for _, f := range s.flows {
		f.src.SampleGauges(func(gauge string, v float64) {
			s.bus.Publish(Event{At: now, Comp: CompSender, Kind: KSample, Src: gauge, Flow: f.flow, A: v})
		})
	}
	for _, in := range s.insts {
		in.src.SampleGauges(func(gauge string, v float64) {
			s.bus.Publish(Event{At: now, Comp: in.comp, Kind: KSample, Src: in.label + "." + gauge, Flow: NoFlow, A: v})
		})
	}
	if s.done() {
		return
	}
	s.schedule()
}

// done reports whether every flow source that can report completion has
// completed. Instance sources (queues) never keep a sampler alive on
// their own.
func (s *Sampler) done() bool {
	if len(s.flows) == 0 {
		return true
	}
	for _, f := range s.flows {
		d, ok := f.src.(interface{ Done() bool })
		if !ok || !d.Done() {
			return false
		}
	}
	return true
}

// Series is one sampled gauge's time series within one stream segment.
type Series struct {
	Comp Component
	// Src is the gauge label: plain ("cwnd") for flow gauges,
	// instance-prefixed ("fwd.qlen") for instance gauges.
	Src  string
	Flow int32
	Seg  int
	T    []float64 // sample times, seconds
	V    []float64 // sampled values
}

// SeriesSink collects KSample events into per-gauge series. Like
// SpanSink it detects sim-time regression and rolls to a new segment,
// so multi-run republished streams produce one series set per run.
// A nil *SeriesSink is a valid no-op.
type SeriesSink struct {
	series []*Series
	idx    map[seriesKey]*Series
	at     Segmenter
}

type seriesKey struct {
	comp Component
	src  string
	flow int32
	seg  int
}

// NewSeriesSink returns an empty series collector.
func NewSeriesSink() *SeriesSink {
	return &SeriesSink{idx: make(map[seriesKey]*Series)}
}

// Emit implements Sink; only KSample events are retained.
func (s *SeriesSink) Emit(ev Event) {
	if s == nil {
		return
	}
	s.at.Advance(&ev)
	if ev.Kind != KSample {
		return
	}
	key := seriesKey{comp: ev.Comp, src: ev.Src, flow: ev.Flow, seg: s.at.Seg}
	sr := s.idx[key]
	if sr == nil {
		sr = &Series{Comp: ev.Comp, Src: ev.Src, Flow: ev.Flow, Seg: s.at.Seg}
		s.idx[key] = sr
		s.series = append(s.series, sr)
	}
	sr.T = append(sr.T, ev.At.Seconds())
	sr.V = append(sr.V, ev.A)
}

// Series returns the collected series in first-sample order.
func (s *SeriesSink) Series() []*Series {
	if s == nil {
		return nil
	}
	return s.series
}

// WriteSeriesCSV writes series in long form — one row per sample —
// with a fixed header, deterministic for identical input:
//
//	seg,comp,src,flow,t,value
func WriteSeriesCSV(w io.Writer, series []*Series) error {
	if _, err := io.WriteString(w, "seg,comp,src,flow,t,value\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 128)
	for _, sr := range series {
		flow := ""
		if sr.Flow != NoFlow {
			flow = strconv.FormatInt(int64(sr.Flow), 10)
		}
		for i := range sr.T {
			buf = buf[:0]
			buf = strconv.AppendInt(buf, int64(sr.Seg), 10)
			buf = append(buf, ',')
			buf = append(buf, sr.Comp.String()...)
			buf = append(buf, ',')
			buf = append(buf, sr.Src...)
			buf = append(buf, ',')
			buf = append(buf, flow...)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, sr.T[i], 'f', 9, 64)
			buf = append(buf, ',')
			buf = appendJSONFloat(buf, sr.V[i])
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}
