// Observability surface of the rrtcp facade: the telemetry bus and
// sinks, metrics, spans and sampled series, trace export, the live
// introspection server, and the overload guardrails.
package rrtcp

import (
	"io"

	"rrtcp/internal/experiments"
	"rrtcp/internal/guard"
	"rrtcp/internal/invariant"
	"rrtcp/internal/obs"
	"rrtcp/internal/stats"
	"rrtcp/internal/sweep"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/telemetry/flowstats"
)

// --- telemetry (structured events, metrics, sinks) ---

type (
	// TelemetryBus fans structured simulation events out to sinks. A nil
	// bus is valid and publishes nothing (the default null sink).
	TelemetryBus = telemetry.Bus
	// TelemetryEvent is one structured simulation event.
	TelemetryEvent = telemetry.Event
	// TelemetrySink consumes published events.
	TelemetrySink = telemetry.Sink
	// TelemetryRing is a bounded in-memory sink, handy in tests.
	TelemetryRing = telemetry.Ring
	// NDJSONSink streams events as newline-delimited JSON.
	NDJSONSink = telemetry.NDJSONSink
	// MetricsRegistry aggregates counters, gauges, and histograms.
	MetricsRegistry = telemetry.Registry
	// MetricsSink populates a MetricsRegistry from the event stream.
	MetricsSink = telemetry.MetricsSink
)

// NewTelemetryBus returns a bus publishing to the given sinks.
func NewTelemetryBus(sinks ...telemetry.Sink) *TelemetryBus { return telemetry.NewBus(sinks...) }

// NewTelemetryRing returns an in-memory ring keeping the last n events.
func NewTelemetryRing(n int) *TelemetryRing { return telemetry.NewRing(n) }

// NewNDJSONSink returns a sink streaming events to w as NDJSON.
func NewNDJSONSink(w io.Writer) *NDJSONSink { return telemetry.NewNDJSONSink(w) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewMetricsSink returns a sink aggregating events into a fresh
// registry, exposed as its R field.
func NewMetricsSink() *MetricsSink { return telemetry.NewMetricsSink() }

// --- live introspection (HTTP server, progress state) ---

type (
	// ProgressState is a concurrency-safe materialized view of sweep
	// progress events, readable while the sweep runs — the data source
	// behind the introspection server's /progress endpoint.
	ProgressState = telemetry.ProgressState
	// ProgressSnapshot is a point-in-time copy of sweep progress.
	ProgressSnapshot = telemetry.ProgressSnapshot
	// ObsServer is the live introspection HTTP server: /metrics
	// (Prometheus text format), /progress (JSON), /healthz, and
	// /debug/pprof. See internal/obs and docs/OBSERVABILITY.md.
	ObsServer = obs.Server
)

// NewProgressState returns an empty progress view, ready to subscribe
// to a sweep's progress bus alongside (or instead of) a ProgressSink.
func NewProgressState() *ProgressState { return telemetry.NewProgressState() }

// NewObsServer returns an unstarted introspection server over the
// given sources; any may be nil. Call Start(addr) to serve.
func NewObsServer(r *MetricsRegistry, p *ProgressState, f *FlowTable) *ObsServer {
	return obs.New(obs.Config{Registry: r, Progress: p, Flows: f})
}

// ValidatePrometheus structurally checks Prometheus text-format
// exposition output (the format /metrics serves).
func ValidatePrometheus(data []byte) error { return telemetry.ValidatePrometheus(data) }

// --- flow-scale analytics (aggregate accounting, exemplars, fairness) ---

type (
	// FlowTable is the constant-memory-per-flow analytics sink: it folds
	// flow lifecycle events into per-variant aggregates (FCT, goodput,
	// retransmissions, windowed Jain fairness) plus a seeded reservoir
	// of fully-detailed exemplar flows. It is the data source behind the
	// introspection server's /flows endpoint.
	FlowTable = flowstats.FlowTable
	// FlowStatsConfig parameterizes a FlowTable.
	FlowStatsConfig = flowstats.Config
	// FlowSummary is a FlowTable snapshot: the JSON-safe, mergeable unit
	// parallel sweeps reduce in job order.
	FlowSummary = flowstats.Summary
	// FlowReport is the rendered form of a FlowSummary: per-variant FCT
	// quantiles, goodput, and fairness, with text and CSV output.
	FlowReport = flowstats.Report
	// FlowVariantStats is one variant's row of a FlowReport.
	FlowVariantStats = flowstats.VariantStats
	// FlowExemplar is one reservoir-sampled flow retained in full ring
	// detail.
	FlowExemplar = flowstats.Exemplar
)

// NewFlowTable returns an empty flow-analytics table; subscribe it to a
// telemetry bus. The zero FlowStatsConfig is valid (aggregates only).
func NewFlowTable(cfg FlowStatsConfig) *FlowTable { return flowstats.New(cfg) }

// FlowTableFromRecords replays a decoded event log through a fresh
// table — how `rrtrace flows` rebuilds the live /flows view offline.
func FlowTableFromRecords(events []TelemetryEvent, cfg FlowStatsConfig) *FlowTable {
	t := flowstats.New(cfg)
	telemetry.Replay(events, t)
	t.Finalize()
	return t
}

// --- spans, sampled series, and trace export ---

type (
	// Span is one timed interval assembled from the event stream: a
	// connection lifetime, a recovery episode, a retreat/probe
	// sub-phase, or a queue busy period.
	Span = telemetry.Span
	// SpanKind discriminates the span types.
	SpanKind = telemetry.SpanKind
	// SpanEvent is an instantaneous marker attached to a span.
	SpanEvent = telemetry.SpanEvent
	// SpanSink assembles spans live from a telemetry bus.
	SpanSink = telemetry.SpanSink
	// Sampler periodically records gauge series (cwnd, ssthresh,
	// actnum, srtt, rto, flight, queue occupancy) in simulated time.
	Sampler = telemetry.Sampler
	// TelemetryGaugeSource is implemented by components that expose
	// gauges to a Sampler (senders, queues).
	TelemetryGaugeSource = telemetry.GaugeSource
	// Series is one sampled gauge time series.
	Series = telemetry.Series
	// SeriesSink collects sampled series live from a telemetry bus.
	SeriesSink = telemetry.SeriesSink
	// LogHistogram is a log-bucketed HDR-style histogram for latency
	// and duration distributions.
	LogHistogram = stats.LogHistogram
	// TelemetryComponent identifies the component an event came from.
	TelemetryComponent = telemetry.Component
)

// CompQueue labels queue-scoped telemetry — the component to pass when
// wiring a Sampler to a queue instance via AddInstance.
const CompQueue = telemetry.CompQueue

// Span kinds assembled by SpanSink.
const (
	SpanConn      = telemetry.SpanConn
	SpanRecovery  = telemetry.SpanRecovery
	SpanRetreat   = telemetry.SpanRetreat
	SpanProbe     = telemetry.SpanProbe
	SpanQueueBusy = telemetry.SpanQueueBusy
)

// NewSpanSink returns a sink assembling spans from the event stream.
func NewSpanSink() *SpanSink { return telemetry.NewSpanSink() }

// NewSeriesSink returns a sink collecting sampled gauge series.
func NewSeriesSink() *SeriesSink { return telemetry.NewSeriesSink() }

// NewSampler returns a sampler publishing gauge samples on bus every
// `every` of simulated time, or nil (a safe no-op) when telemetry is
// disabled. Register sources with AddFlow/AddInstance, then Start.
func NewSampler(s *Scheduler, bus *TelemetryBus, every Time) *Sampler {
	return telemetry.NewSampler(s, bus, every)
}

// NewLogHistogram returns an empty log-bucketed histogram.
func NewLogHistogram() *LogHistogram { return stats.NewLogHistogram() }

// AssembleSpans builds the span tree from a decoded event log.
func AssembleSpans(events []TelemetryEvent) []*Span {
	sink := telemetry.NewSpanSink()
	telemetry.Replay(events, sink)
	return sink.Spans()
}

// AssembleSeries builds sampled series from a decoded event log.
func AssembleSeries(events []TelemetryEvent) []*Series {
	sink := telemetry.NewSeriesSink()
	telemetry.Replay(events, sink)
	return sink.Series()
}

// RenderSpans formats a span tree as an indented text listing.
func RenderSpans(spans []*Span) string { return telemetry.RenderSpans(spans) }

// WriteChromeTrace writes spans and series as Chrome trace-event JSON,
// openable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, spans []*Span, series []*Series) error {
	return telemetry.WriteChromeTrace(w, spans, series)
}

// ValidateChromeTrace structurally checks Chrome trace-event JSON:
// well-formed traceEvents, per-track monotone timestamps, balanced
// begin/end pairs.
func ValidateChromeTrace(data []byte) error { return telemetry.ValidateChromeTrace(data) }

// WriteSeriesCSV writes sampled series as CSV (seg,comp,src,flow,t,value).
func WriteSeriesCSV(w io.Writer, series []*Series) error {
	return telemetry.WriteSeriesCSV(w, series)
}

// --- overload guardrails: budgets, bounded telemetry, degradation ---

type (
	// GuardLimits is a set of resource budgets (events, sim-time, event
	// storm, wall clock, heap) attached to a scheduler; zero fields mean
	// "no limit".
	GuardLimits = guard.Limits
	// GuardMonitor observes one scheduler against a GuardLimits set.
	GuardMonitor = guard.Monitor
	// OverloadError is the typed error a tripped resource budget
	// produces; it carries the sweep's Degraded marker.
	OverloadError = guard.OverloadError
	// StallError is the typed error form of a liveness ("stall")
	// violation; like OverloadError it degrades rather than fails.
	StallError = invariant.StallError
	// BoundedSink wraps a telemetry sink with an event budget and drop
	// policy, with drop accounting surfaced as "telemetry-drops" events.
	BoundedSink = telemetry.BoundedSink
	// BoundedSinkConfig parameterizes a BoundedSink.
	BoundedSinkConfig = telemetry.BoundedConfig
	// TelemetryDropPolicy selects the over-budget behavior
	// (TelemetryDropNewest or TelemetrySampleOneInK).
	TelemetryDropPolicy = telemetry.DropPolicy
	// SweepDegraded is the result slot of a sweep job whose resource
	// budget tripped: the sweep completes and reports it instead of
	// failing.
	SweepDegraded = sweep.Degraded
	// StressConfig / StressResult: the overload soak (rrsim stress).
	StressConfig = experiments.StressConfig
	StressResult = experiments.StressResult
)

// Telemetry drop policies for BoundedSinkConfig.Policy.
const (
	TelemetryDropNewest   = telemetry.DropNewest
	TelemetrySampleOneInK = telemetry.SampleOneInK
)

// AttachGuard installs a resource-budget monitor on the scheduler; a
// tripped budget stops the run with a typed *OverloadError and
// publishes an "overload" telemetry event on bus (which may be nil).
func AttachGuard(sched *Scheduler, limits GuardLimits, bus *TelemetryBus) (*GuardMonitor, error) {
	return guard.Attach(sched, limits, bus)
}

// NewBoundedSink wraps inner with an event budget and drop policy.
func NewBoundedSink(inner TelemetrySink, cfg BoundedSinkConfig) *BoundedSink {
	return telemetry.NewBoundedSink(inner, cfg)
}

// SweepIsDegraded reports whether a job error carries the structural
// Degraded marker (a resource-budget trip) anywhere in its Unwrap
// chain.
func SweepIsDegraded(err error) bool { return sweep.IsDegraded(err) }

// RunStress runs the overload soak: cells of concurrent flows under
// chaos plans, invariant checking, bounded telemetry, and guard
// budgets, with budget-tripped cells degrading instead of failing.
func RunStress(cfg StressConfig) (*StressResult, error) { return experiments.Stress(cfg) }
