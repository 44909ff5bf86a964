package telemetry

import (
	"fmt"

	"rrtcp/internal/sim"
)

// DropPolicy selects what a BoundedSink does with events past its
// budget.
type DropPolicy uint8

const (
	// DropNewest forwards the first MaxEvents events and drops
	// everything after — the log keeps the run's head, where setup and
	// early dynamics live.
	DropNewest DropPolicy = iota
	// SampleOneInK forwards the first MaxEvents events and then every
	// sampleK-th event — the log thins to a sketch of the tail instead
	// of going silent.
	SampleOneInK
)

const (
	// sampleK is the SampleOneInK modulus.
	sampleK = 16
	// markEvery is the cadence, in dropped events, of drop-marker
	// injection after the first. The first drop is always marked, so a
	// reader knows immediately that the stream is thinned.
	markEvery = 8192
)

// String implements fmt.Stringer.
func (p DropPolicy) String() string {
	switch p {
	case DropNewest:
		return "drop-newest"
	case SampleOneInK:
		return "sample-1-in-k"
	default:
		return fmt.Sprintf("DropPolicy(%d)", int(p))
	}
}

// BoundedConfig parameterizes a BoundedSink.
type BoundedConfig struct {
	// MaxEvents is the budget of events forwarded before Policy engages.
	// Zero disables bounding entirely (pure pass-through).
	MaxEvents uint64
	// Policy selects the over-budget behavior.
	Policy DropPolicy
	// Src labels this sink's drop-marker events (the "src" field of the
	// telemetry-drops lines); empty selects "bounded".
	Src string
}

// BoundedSink wraps another sink with an explicit event budget and drop
// policy, so telemetry under overload thins predictably instead of
// ballooning. Drops are accounted two ways: Dropped/Kept counters read
// in-process, and "telemetry-drops" marker events injected into the
// downstream sink (cumulative counts), which flow into NDJSON logs,
// rrtrace summary, and — through a MetricsSink — the Registry and
// /metrics.
//
// The decision to keep or drop depends only on the event count and the
// policy, never on wall time, so a bounded stream is as deterministic
// as its input.
type BoundedSink struct {
	inner Sink
	cfg   BoundedConfig

	seen, kept, dropped uint64
}

// NewBoundedSink wraps inner with the given budget and policy.
func NewBoundedSink(inner Sink, cfg BoundedConfig) *BoundedSink {
	if cfg.Src == "" {
		cfg.Src = "bounded"
	}
	return &BoundedSink{inner: inner, cfg: cfg}
}

// Emit implements Sink.
func (b *BoundedSink) Emit(ev Event) {
	b.seen++
	if b.cfg.MaxEvents == 0 || b.seen <= b.cfg.MaxEvents {
		b.kept++
		b.inner.Emit(ev)
		return
	}
	if b.cfg.Policy == SampleOneInK && (b.seen-b.cfg.MaxEvents)%sampleK == 0 {
		b.kept++
		b.inner.Emit(ev)
		return
	}
	b.dropped++
	if b.dropped == 1 || b.dropped%markEvery == 0 {
		b.mark(ev.At)
	}
}

// mark injects a cumulative drop-accounting event downstream.
func (b *BoundedSink) mark(at sim.Time) {
	b.inner.Emit(Event{
		At:   at,
		Comp: CompTelemetry,
		Kind: KTelemetryDrops,
		Src:  b.cfg.Src,
		Flow: NoFlow,
		A:    float64(b.dropped),
		B:    float64(b.kept),
	})
}

// Finalize injects a final drop marker carrying the totals, stamped at
// the given sim time — call it when the run ends so the log's last word
// on drops is exact. It emits nothing when nothing was dropped.
func (b *BoundedSink) Finalize(at sim.Time) {
	if b.dropped > 0 {
		b.mark(at)
	}
}

// Kept reports the number of events forwarded downstream (drop markers
// not included).
func (b *BoundedSink) Kept() uint64 { return b.kept }

// Dropped reports the number of events the policy discarded.
func (b *BoundedSink) Dropped() uint64 { return b.dropped }
