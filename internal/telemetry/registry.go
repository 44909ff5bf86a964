package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"rrtcp/internal/sim"
	"rrtcp/internal/stats"
)

// Registry is a flat, name-keyed metrics store: counters, gauges, and
// histograms. Names are dotted paths keyed by component and instance,
// e.g. "queue.fwd.drops", "sender.0.retransmits", "link.fwd.tx_bytes";
// WritePrometheus translates that convention into Prometheus families
// with an "instance" label.
//
// The registry is safe for concurrent use, with reads that never block
// publishers: counter and gauge updates are atomic operations on
// per-metric cells, so Snapshot (and a live /metrics scrape) observes
// them with plain atomic loads while a simulation keeps publishing.
// The registry-wide lock is taken in write mode only when a metric name
// is seen for the first time; histogram observations and reads
// serialize on a per-histogram mutex (they aggregate multi-word state).
// A single-goroutine simulation pays only uncontended atomics.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*atomic.Uint64
	gauges   map[string]*atomic.Uint64 // math.Float64bits encoded
	logHists map[string]*lockedLogHist
}

// lockedLogHist guards a stats.LogHistogram (fixed-size value type)
// against concurrent Observe/read; the value embeds directly so a
// snapshot is a plain struct copy under the lock.
type lockedLogHist struct {
	mu sync.Mutex
	h  stats.LogHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*atomic.Uint64),
		gauges:   make(map[string]*atomic.Uint64),
		logHists: make(map[string]*lockedLogHist),
	}
}

// counterCell resolves (creating on first use) the named counter cell.
func (r *Registry) counterCell(name string) *atomic.Uint64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = new(atomic.Uint64)
		r.counters[name] = c
	}
	return c
}

// gaugeCell resolves (creating on first use) the named gauge cell.
func (r *Registry) gaugeCell(name string) *atomic.Uint64 {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = new(atomic.Uint64)
		r.gauges[name] = g
	}
	return g
}

// Inc adds delta to the named counter.
func (r *Registry) Inc(name string, delta uint64) { r.counterCell(name).Add(delta) }

// Counter returns the named counter's value (0 when absent).
func (r *Registry) Counter(name string) uint64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// SetGauge records the latest value of a quantity.
func (r *Registry) SetGauge(name string, v float64) {
	r.gaugeCell(name).Store(math.Float64bits(v))
}

// Gauge returns the named gauge's latest value (0 when absent).
func (r *Registry) Gauge(name string) float64 {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.Load())
}

// CounterVar is a resolved handle on one counter: hot paths that would
// otherwise pay a map lookup per increment resolve the handle once and
// then Add is a single atomic operation.
type CounterVar struct{ v *atomic.Uint64 }

// Add increments the counter.
func (c CounterVar) Add(delta uint64) { c.v.Add(delta) }

// GaugeVar is a resolved handle on one gauge.
type GaugeVar struct{ v *atomic.Uint64 }

// Set stores the gauge value.
func (g GaugeVar) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// counterVarOf resolves a live handle on the named counter.
func (r *Registry) counterVarOf(name string) CounterVar { return CounterVar{r.counterCell(name)} }

// GaugeVarOf resolves a live handle on the named gauge.
func (r *Registry) GaugeVarOf(name string) GaugeVar { return GaugeVar{r.gaugeCell(name)} }

// ObserveLog appends a sample to the named log-bucketed histogram,
// creating it on first use. It retains no raw samples, so its cost is
// fixed however long the stream — queue occupancy over a live process,
// episode durations over a long sweep, per-job wall latencies.
func (r *Registry) ObserveLog(name string, v float64) { r.logHistCell(name).observe(v) }

// logHistCell resolves (creating on first use) the named histogram.
func (r *Registry) logHistCell(name string) *lockedLogHist {
	r.mu.RLock()
	l := r.logHists[name]
	r.mu.RUnlock()
	if l != nil {
		return l
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if l = r.logHists[name]; l == nil {
		l = &lockedLogHist{}
		r.logHists[name] = l
	}
	return l
}

func (l *lockedLogHist) observe(v float64) {
	l.mu.Lock()
	l.h.Observe(v)
	l.mu.Unlock()
}

// LogHist returns a point-in-time copy of the named log-bucketed
// histogram, or nil. Returning a copy keeps readers decoupled from
// concurrent Observe calls.
func (r *Registry) LogHist(name string) *stats.LogHistogram {
	r.mu.RLock()
	l := r.logHists[name]
	r.mu.RUnlock()
	if l == nil {
		return nil
	}
	l.mu.Lock()
	cp := l.h
	l.mu.Unlock()
	return &cp
}

// metricNames returns every metric name tagged by kind, sorted — the
// shared iteration order of Snapshot and WritePrometheus.
func (r *Registry) metricNames() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.logHists))
	for n := range r.counters {
		names = append(names, "c "+n)
	}
	for n := range r.gauges {
		names = append(names, "g "+n)
	}
	for n := range r.logHists {
		names = append(names, "l "+n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Snapshot renders every metric, sorted by name, as "name value" lines
// — a deterministic dump for tests and rrtrace metrics. It is
// safe to call while the registry is being written: values are read
// with atomic loads, so concurrent publishers are never blocked.
func (r *Registry) Snapshot() string {
	var b strings.Builder
	for _, tagged := range r.metricNames() {
		kind, name := tagged[:1], tagged[2:]
		switch kind {
		case "c":
			fmt.Fprintf(&b, "%-40s %d\n", name, r.Counter(name))
		case "g":
			fmt.Fprintf(&b, "%-40s %g\n", name, r.Gauge(name))
		case "l":
			h := r.LogHist(name)
			fmt.Fprintf(&b, "%-40s n=%d mean=%.3g p50=%.3g p99=%.3g max=%.3g\n",
				name, h.Count(), h.Mean(), h.Quantile(50), h.Quantile(99), h.Max())
		}
	}
	return b.String()
}

// MetricsSink aggregates the event stream into a Registry — the
// bus-native way to get per-queue drop/occupancy, per-link utilization,
// and per-sender recovery counters without touching the publishers.
// The registry may be read (Snapshot, WritePrometheus, a live /metrics
// scrape) while the sink keeps emitting; Emit itself follows the usual
// sink contract and runs on one goroutine at a time.
type MetricsSink struct {
	R *Registry

	// at follows the stream: a new segment drops the episodes the last
	// one left open, so episode_s never measures across two runs.
	at    Segmenter
	flows PerFlow[flowCells]
	srcs  map[string]*srcCells // queues and links, by Src
}

// flowCells are one flow's registry cells, each resolved by name on the
// first event that touches it — a metric appears in the registry only
// once something counted — and a single atomic operation from then on.
type flowCells struct {
	prefix   string                        // "sender.<flow>."
	counters [len(flowCounters)]CounterVar // by Kind; see flowCounters
	cwnd     GaugeVar
	samples  []sampleCell   // the sample_<gauge> gauges, by gauge name
	episodes *lockedLogHist // episode_s
	// enter is the open recovery episode's start (inRecovery says whether
	// there is one), so the episode's end can feed episode_s.
	enter      sim.Time
	inRecovery bool
}

// srcCells are one queue's and link's registry cells, resolved by name
// on the source's first event of that kind, as flowCells are.
type srcCells struct {
	queue, link  bool // whether the queue's / the link's cells are resolved
	enqueued     CounterVar
	occupancy    GaugeVar
	occupancyLog *lockedLogHist
	txPackets    CounterVar
	txBytes      CounterVar
}

type sampleCell struct {
	gauge string
	v     GaugeVar
}

// flowCounters names the per-flow counter each sender event kind bumps.
var flowCounters = [...]string{
	KSend:          "data_sent",
	KRetransmit:    "retransmits",
	KTimeout:       "timeouts",
	KRecoveryEnter: "fast_retransmits",
	KFurtherLoss:   "further_losses",
}

// NewMetricsSink returns a sink feeding a fresh registry.
func NewMetricsSink() *MetricsSink { return &MetricsSink{R: NewRegistry()} }

// flow returns the cells of a flow-scoped event's flow, growing the
// table on first sight; nil for an event that names no flow.
func (m *MetricsSink) flow(id int32) *flowCells {
	f := m.flows.Get(id)
	if f != nil && f.prefix == "" {
		f.prefix = "sender." + strconv.Itoa(int(id)) + "."
	}
	return f
}

// src returns the cells of a queue's or link's event source.
func (m *MetricsSink) src(name string) *srcCells {
	c := m.srcs[name]
	if c == nil {
		if m.srcs == nil {
			m.srcs = make(map[string]*srcCells)
		}
		c = new(srcCells)
		m.srcs[name] = c
	}
	return c
}

// Emit implements Sink.
func (m *MetricsSink) Emit(ev Event) {
	if m.at.Regressed(&ev) {
		m.flows.Each(func(_ int32, f *flowCells) { f.inRecovery = false })
	}
	m.at.Advance(&ev)
	// An episode ends where SpanSink's recovery span does.
	if endsEpisode(ev.Kind) {
		if f := m.flow(ev.Flow); f != nil && f.inRecovery {
			if f.episodes == nil {
				f.episodes = m.R.logHistCell(f.prefix + "episode_s")
			}
			f.episodes.observe((ev.At - f.enter).Seconds())
			f.inRecovery = false
		}
	}
	switch ev.Kind {
	case KSend, KRetransmit, KTimeout, KRecoveryEnter, KFurtherLoss:
		f := m.flow(ev.Flow)
		if f == nil {
			return
		}
		c := &f.counters[ev.Kind]
		if c.v == nil {
			*c = m.R.counterVarOf(f.prefix + flowCounters[ev.Kind])
		}
		c.Add(1)
		if ev.Kind == KRecoveryEnter {
			f.enter, f.inRecovery = ev.At, true
		}
	case KCwnd:
		f := m.flow(ev.Flow)
		if f == nil {
			return
		}
		if f.cwnd.v == nil {
			f.cwnd = m.R.GaugeVarOf(f.prefix + "cwnd")
		}
		f.cwnd.Set(ev.A)
	case KEnqueue:
		c := m.src(ev.Src)
		if !c.queue {
			c.queue = true
			c.enqueued = m.R.counterVarOf(srcKey("queue", ev.Src, "enqueued"))
			c.occupancy = m.R.GaugeVarOf(srcKey("queue", ev.Src, "occupancy"))
			c.occupancyLog = m.R.logHistCell(srcKey("queue", ev.Src, "occupancy_hist"))
		}
		c.enqueued.Add(1)
		c.occupancy.Set(ev.A)
		c.occupancyLog.observe(ev.A)
	case KDrop:
		m.R.Inc(srcKey(ev.Comp.String(), ev.Src, "drops"), 1)
	case KMark:
		m.R.Inc(srcKey("queue", ev.Src, "early_drops"), 1)
	case KLinkTx:
		c := m.src(ev.Src)
		if !c.link {
			c.link = true
			c.txPackets = m.R.counterVarOf(srcKey("link", ev.Src, "tx_packets"))
			c.txBytes = m.R.counterVarOf(srcKey("link", ev.Src, "tx_bytes"))
		}
		c.txPackets.Add(1)
		c.txBytes.Add(uint64(ev.A))
	case KLinkDown:
		m.R.Inc(srcKey("link", ev.Src, "flaps"), 1)
	case KLinkParam:
		m.R.Inc(srcKey("link", ev.Src, "renegotiations"), 1)
	case KFaultReorder:
		m.R.Inc(srcKey("fault", ev.Src, "reordered"), 1)
	case KFaultDup:
		m.R.Inc(srcKey("fault", ev.Src, "duplicated"), 1)
	case KAckCompress:
		m.R.Inc(srcKey("fault", ev.Src, "ack_batches"), 1)
	case KViolation:
		m.R.Inc("invariant.violations", 1)
	case KSample:
		// Gauge names join with '_' (not '.') so the dotted path keeps
		// its comp.instance.metric shape for Prometheus translation.
		f := m.flow(ev.Flow)
		if f == nil {
			m.R.SetGauge(srcKey(ev.Comp.String(), ev.Src, "sample"), ev.A)
			return
		}
		for i := range f.samples {
			if f.samples[i].gauge == ev.Src {
				f.samples[i].v.Set(ev.A)
				return
			}
		}
		g := m.R.GaugeVarOf(f.prefix + "sample_" + ev.Src)
		g.Set(ev.A)
		f.samples = append(f.samples, sampleCell{ev.Src, g})
	case KSweepJobTime:
		m.R.ObserveLog("sweep.job_latency_s", ev.A)
	case KSweepStart:
		m.R.Inc("sweep.started", 1)
		m.R.SetGauge("sweep.jobs_total", ev.A)
		m.R.SetGauge("sweep.workers", ev.B)
	case KSweepJob:
		m.R.SetGauge("sweep.jobs_completed", ev.A)
	case KSweepStall:
		m.R.Inc("sweep.stalls", 1)
	case KSweepWorker:
		m.R.SetGauge(srcKey("sweep", ev.Src, "worker_busy_s"), ev.A)
		m.R.SetGauge(srcKey("sweep", ev.Src, "worker_jobs"), ev.B)
	case KSweepDegraded:
		m.R.Inc("sweep.degraded", 1)
	case KSweepDone:
		m.R.Inc("sweep.finished", 1)
		if ev.B > 0 {
			m.R.SetGauge("sweep.wall_s", ev.B)
		}
	case KOverload:
		m.R.Inc("guard.overloads", 1)
		m.R.Inc(srcKey("guard", ev.Src, "trips"), 1)
	case KTelemetryDrops:
		// Cumulative counts ride the event, so the gauges always show the
		// sink's latest accounting.
		m.R.SetGauge(srcKey("telemetry", ev.Src, "dropped_events"), ev.A)
		m.R.SetGauge(srcKey("telemetry", ev.Src, "kept_events"), ev.B)
	case KFlowStart:
		m.R.Inc(srcKey("flows", ev.Src, "started"), 1)
	case KFlowStats:
		m.R.Inc(srcKey("flows", ev.Src, "completed"), 1)
		m.R.ObserveLog(srcKey("flows", ev.Src, "rtx"), ev.A)
	}
}

func srcKey(comp, src, metric string) string {
	if src == "" {
		src = "?"
	}
	return comp + "." + src + "." + metric
}
