// Observability surface of the rrtcp facade: the telemetry bus and
// sinks, metrics, spans and sampled series, trace export, the live
// introspection server, and the overload soak's result.
package rrtcp

import (
	"io"

	"rrtcp/internal/experiments"
	"rrtcp/internal/obs"
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

// NewMetricsSink returns a sink aggregating events into a fresh
// registry, exposed as its R field.
func NewMetricsSink() *MetricsSink { return telemetry.NewMetricsSink() }

// --- live introspection (HTTP server, progress state) ---

type (
	// ProgressState is a concurrency-safe materialized view of sweep
	// progress events, readable while the sweep runs — the data source
	// behind the introspection server's /progress endpoint.
	ProgressState = telemetry.ProgressState
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
	// FlowReport is the rendered form of a FlowTable snapshot:
	// per-variant FCT quantiles, goodput, and fairness, with text and
	// CSV output.
	FlowReport = flowstats.Report
)

// NewFlowTable returns an empty flow-analytics table; subscribe it to a
// telemetry bus. The zero FlowStatsConfig is valid (aggregates only).
func NewFlowTable(cfg FlowStatsConfig) *FlowTable { return flowstats.New(cfg) }

// --- spans, sampled series, and trace export ---

type (
	// Span is one timed interval assembled from the event stream: a
	// connection lifetime, a recovery episode, a retreat/probe
	// sub-phase, or a queue busy period.
	Span = telemetry.Span
	// SpanSink assembles spans live from a telemetry bus.
	SpanSink = telemetry.SpanSink
	// Sampler periodically records gauge series (cwnd, ssthresh,
	// actnum, srtt, rto, flight, queue occupancy) in simulated time.
	Sampler = telemetry.Sampler
	// Series is one sampled gauge time series.
	Series = telemetry.Series
	// SeriesSink collects sampled series live from a telemetry bus.
	SeriesSink = telemetry.SeriesSink
)

// CompQueue labels queue-scoped telemetry — the component to pass when
// wiring a Sampler to a queue instance via AddInstance.
const CompQueue = telemetry.CompQueue

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

// --- overload soak ---

// StressResult is the overload soak's result (rrsim stress): per-cell
// accounting, with every cell whose event budget tripped listed in
// Degraded instead of failing the sweep.
type StressResult = experiments.StressResult
