package flowstats

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// ev builds a flow-scoped sender event at t (seconds).
func ev(t float64, kind telemetry.Kind, flow int32, variant string, seq int64, a, b float64) telemetry.Event {
	return telemetry.Event{
		At:   sim.Time(t * 1e9),
		Comp: telemetry.CompSender,
		Kind: kind,
		Src:  variant,
		Flow: flow,
		Seq:  seq,
		A:    a,
		B:    b,
	}
}

func start(t float64, flow int32, variant string, bytes int64) telemetry.Event {
	return ev(t, telemetry.KFlowStart, flow, variant, bytes, float64(bytes), 0)
}

func done(t float64, flow int32, variant string, acked int64, rtx, timeouts float64) telemetry.Event {
	return ev(t, telemetry.KFlowStats, flow, variant, acked, rtx, timeouts)
}

func ack(t float64, flow int32, seq int64) telemetry.Event {
	return ev(t, telemetry.KAck, flow, "", seq, 0, 0)
}

func emitAll(t *FlowTable, evs []telemetry.Event) {
	for _, e := range evs {
		t.Emit(e)
	}
}

// With rrsim -http -flow-stats the live table and the metrics sink feed
// one registry: each completed flow lands in flows.<variant>.rtx once,
// from the metrics sink, while the table adds FCT and goodput.
func TestSharedRegistryCountsEachFlowOnce(t *testing.T) {
	ms := telemetry.NewMetricsSink()
	tab := New(Config{Registry: ms.R})
	telemetry.Replay([]telemetry.Event{start(0, 0, "rr", 1e6), done(2, 0, "rr", 1e6, 3, 0)}, ms, tab)
	for name, want := range map[string]float64{"flows.rr.rtx": 3, "flows.rr.fct_s": 2} {
		h := ms.R.LogHist(name)
		if h == nil {
			t.Errorf("%s missing", name)
		} else if h.Count() != 1 || h.Sum() != want {
			t.Errorf("%s: count=%d sum=%g, want one sample of %g", name, h.Count(), h.Sum(), want)
		}
	}
}

// Aggregation: lifecycle events fold into per-variant counts, FCT,
// goodput, and retransmission load, with variants reported in sorted
// order regardless of arrival order.
func TestFlowTableAggregation(t *testing.T) {
	tab := New(Config{})
	emitAll(tab, []telemetry.Event{
		start(0, 0, "rr", 1e6),
		start(0, 1, "reno", 1e6),
		ev(0.1, telemetry.KRecoveryEnter, 0, "rr", 0, 0, 0),
		done(2.0, 0, "rr", 1_000_000, 3, 1),
		done(4.0, 1, "reno", 500_000, 7, 2),
		start(5.0, 2, "rr", 1e6), // still live at the end
	})
	tab.Finalize()

	s := tab.Summary()
	if s.Started != 3 || s.Completed != 2 || s.Live != 1 {
		t.Fatalf("counts: started=%d completed=%d live=%d", s.Started, s.Completed, s.Live)
	}
	if len(s.Variants) != 2 || s.Variants[0].Variant != "reno" || s.Variants[1].Variant != "rr" {
		t.Fatalf("variants not sorted: %+v", s.Variants)
	}
	reno, rr := &s.Variants[0], &s.Variants[1]

	if rr.Started != 2 || rr.Completed != 1 || rr.Episodes != 1 || rr.Timeouts != 1 {
		t.Fatalf("rr agg: %+v", rr)
	}
	if rr.BytesAcked != 1_000_000 {
		t.Fatalf("rr bytesAcked = %d", rr.BytesAcked)
	}
	// FCT and goodput means are exact (histogram sums, not buckets):
	// flow 0 completed in 2s moving 1e6 bytes = 4e6 bit/s.
	if got := rr.FCT.Mean(); got != 2.0 {
		t.Fatalf("rr FCT mean = %v, want 2", got)
	}
	if got := rr.Goodput.Mean(); got != 4e6 {
		t.Fatalf("rr goodput mean = %v, want 4e6", got)
	}
	if got := rr.Rtx.Mean(); got != 3 {
		t.Fatalf("rr rtx mean = %v, want 3", got)
	}
	if got := reno.FCT.Mean(); got != 4.0 {
		t.Fatalf("reno FCT mean = %v, want 4", got)
	}
	if got := reno.Goodput.Mean(); got != 1e6 {
		t.Fatalf("reno goodput mean = %v, want 1e6", got)
	}

	// Quantiles are log-bucketed approximations of the single sample.
	r := s.Report()
	if p50 := r.Variants[1].FCTP50S; math.Abs(p50-2.0) > 0.4 {
		t.Fatalf("rr fct p50 = %v, want ~2", p50)
	}

	// Robustness: duplicate starts and completions of unknown flows are
	// ignored rather than corrupting counts.
	tab.Emit(start(6.0, 2, "rr", 1e6))
	tab.Emit(done(6.0, 99, "rr", 1, 0, 0))
	s = tab.Summary()
	if s.Started != 3 || s.Completed != 2 {
		t.Fatalf("after junk events: started=%d completed=%d", s.Started, s.Completed)
	}
}

// A log from outside the program may carry any flow id. One near
// MaxInt32 must cost what a small one does, and fold into the same
// aggregates; a segment roll forgets it as it does a small id.
func TestFlowTableLargeFlowIDStaysSmall(t *testing.T) {
	const id = math.MaxInt32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := New(Config{})
	emitAll(tab, []telemetry.Event{
		start(0, id, "rr", 1e6),
		ev(0.5, telemetry.KRecoveryEnter, id, "rr", 0, 0, 0),
		ack(1, id, 1e6),
		done(2, id, "rr", 1e6, 3, 0),
		start(3, id, "rr", 1e6),
		start(1, id, "rr", 1e6), // the next run: the clock restarts
	})
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("FlowTable allocated %d bytes for one flow", grew)
	}
	s := tab.Summary()
	if s.Started != 3 || s.Completed != 1 || s.Live != 2 {
		t.Fatalf("counts: %+v, want 3 started, 1 completed, 2 live", s)
	}
	if rr := s.Variants[0]; rr.Episodes != 1 || rr.FCT.Mean() != 2 {
		t.Fatalf("rr agg: %+v", rr)
	}
}

// A negative flow id other than NoFlow can only come from a damaged log.
// The table holds no entry for it: its events are ignored, not a panic.
func TestFlowTableNegativeFlowIDIsIgnored(t *testing.T) {
	for _, id := range []int32{-2, math.MinInt32} {
		tab := New(Config{})
		emitAll(tab, []telemetry.Event{
			start(0, id, "rr", 1e6),
			ack(1, id, 1e6),
			done(2, id, "rr", 1e6, 0, 0),
			start(3, 0, "rr", 1e6),
		})
		if s := tab.Summary(); s.Started != 1 || s.Completed != 0 || s.Live != 1 {
			t.Fatalf("flow %d: counts %+v, want only flow 0's start", id, s)
		}
	}
}

// A start for each new highest flow id grows the table by amortised
// steps, not by a copy of the whole table: 20 000 ascending starts once
// cost 12.9 GB.
func TestFlowTableAscendingStartsStaySmall(t *testing.T) {
	const flows = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := New(Config{})
	for i := int32(0); i < flows; i++ {
		tab.Emit(start(0, i, "rr", 1e6))
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("%d ascending flow starts allocated %d bytes, want under 4 MB", flows, grew)
	}
	if s := tab.Summary(); s.Started != flows || s.Live != flows {
		t.Fatalf("counts: %+v", s)
	}
}

// The seeded reservoir must sample the same flows for the same seed and
// stream, cap at K, and retain event detail for sampled flows only.
func TestFlowTableReservoirDeterministic(t *testing.T) {
	const n, k = 100, 4
	stream := func() []telemetry.Event {
		var evs []telemetry.Event
		for i := 0; i < n; i++ {
			variant := "rr"
			if i%2 == 1 {
				variant = "reno"
			}
			at := float64(i) * 0.01
			evs = append(evs,
				start(at, int32(i), variant, 1000),
				ack(at+0.001, int32(i), 500),
				done(at+0.005, int32(i), variant, 1000, 0, 0),
			)
		}
		return evs
	}

	ids := func(seed int64) []int32 {
		tab := New(Config{Exemplars: k, Seed: seed})
		emitAll(tab, stream())
		tab.Finalize()
		exs := tab.Exemplars()
		if len(exs) > k {
			t.Fatalf("seed %d: %d exemplars, cap %d", seed, len(exs), k)
		}
		out := make([]int32, len(exs))
		for i, ex := range exs {
			if ex.Ring == nil || len(ex.Ring.Events()) == 0 {
				t.Fatalf("seed %d: exemplar %d has no retained events", seed, ex.Flow)
			}
			// The ring opens with the flow's own start event.
			if first := ex.Ring.Events()[0]; first.Kind != telemetry.KFlowStart || first.Flow != ex.Flow {
				t.Fatalf("seed %d: exemplar %d ring starts with %v/flow %d",
					seed, ex.Flow, first.Kind, first.Flow)
			}
			out[i] = ex.Flow
		}
		return out
	}

	a, b := ids(42), ids(42)
	if len(a) != k {
		t.Fatalf("reservoir not full: %d of %d", len(a), k)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	c := ids(43)
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatalf("seeds 42 and 43 sampled identical flows %v — reservoir ignores seed", a)
	}

	// Exemplars: 0 keeps aggregates only and retains nothing.
	tab := New(Config{})
	emitAll(tab, stream())
	if got := tab.Exemplars(); len(got) != 0 {
		t.Fatalf("K=0 retained %d exemplars", len(got))
	}
}

// Fairness windows: equal per-window goodput scores 1, a 100/300 split
// scores Jain = 0.8, and idle windows contribute no sample.
func TestFlowTableFairnessWindows(t *testing.T) {
	tab := New(Config{})
	emitAll(tab, []telemetry.Event{
		start(0, 0, "rr", 0),
		start(0, 1, "rr", 0),
		ack(0.5, 0, 100),
		ack(0.5, 1, 300),
		// Crossing t=1s closes the first window with shares 100/300.
		ack(1.5, 0, 200),
		ack(1.5, 1, 400),
		// Crossing t=2s closes the second with shares 100/100 -> 1.0.
		done(2.5, 0, "rr", 200, 0, 0),
		done(2.5, 1, "rr", 400, 0, 0),
	})
	tab.Finalize()

	s := tab.Summary()
	if got := s.Overall.Count(); got != 2 {
		t.Fatalf("closed %d overall windows, want 2", got)
	}
	// (100+300)^2 / (2 * (100^2+300^2)) = 0.8
	if got := s.Overall.Min(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("unequal window Jain = %v, want 0.8", got)
	}
	if got := s.Overall.Max(); got != 1.0 {
		t.Fatalf("equal window Jain = %v, want 1", got)
	}
	if s.LastFairness != 1.0 {
		t.Fatalf("last fairness = %v, want 1 (second window)", s.LastFairness)
	}
	if len(s.Variants) != 1 || s.Variants[0].Fairness.Count() != 2 {
		t.Fatalf("per-variant fairness samples: %+v", s.Variants)
	}

	// A long idle stretch is fast-forwarded, not scored window by
	// window: restarting activity at t=100 must not add samples for the
	// ~97 empty windows in between.
	emitAll(tab, []telemetry.Event{
		start(100, 2, "rr", 0),
		start(100, 3, "rr", 0),
		ack(100.5, 2, 50),
		ack(100.5, 3, 50),
		ack(101.5, 2, 60),
	})
	tab.Finalize()
	s = tab.Summary()
	if got := s.Overall.Count(); got != 3 {
		t.Fatalf("after idle gap: %d windows, want 3", got)
	}
}

// Replaying the NDJSON serialization of a stream must reproduce the
// live table byte for byte — the `rrtrace flows` contract.
func TestFromRecordsMatchesLive(t *testing.T) {
	cfg := Config{Exemplars: 2, Seed: 7}
	live := New(cfg)
	var buf bytes.Buffer
	nd := telemetry.NewNDJSONSink(&buf)
	bus := telemetry.NewBus(live, nd)

	for i := int32(0); i < 20; i++ {
		variant := "rr"
		if i%3 == 0 {
			variant = "reno"
		}
		at := float64(i) * 0.2
		bus.Publish(start(at, i, variant, 4000))
		bus.Publish(ack(at+0.1, i, 2000))
		bus.Publish(done(at+0.3, i, variant, 4000, float64(i%4), float64(i%2)))
	}
	live.Finalize()
	if err := nd.Close(); err != nil {
		t.Fatalf("flush ndjson: %v", err)
	}

	replay := New(cfg)
	stats, err := telemetry.DecodeNDJSON(&buf, replay)
	if err != nil || stats.Skipped > 0 || stats.Unknown > 0 {
		t.Fatalf("decode: err=%v stats=%+v", err, stats)
	}
	replay.Finalize()

	if got, want := replay.Report().Render(), live.Report().Render(); got != want {
		t.Fatalf("replay diverges from live table:\n--- replay\n%s--- live\n%s", got, want)
	}
	if got, want := len(replay.Exemplars()), len(live.Exemplars()); got != want {
		t.Fatalf("replay exemplars = %d, live = %d", got, want)
	}
}

// A concatenation of per-job streams (timestamps restarting at zero
// between segments) must reproduce the job tables' merged summary —
// what makes `rrtrace flows` agree with a sweep's in-run report.
func TestFromRecordsSegmentedStream(t *testing.T) {
	segment := func(bytesA, bytesB int64) []telemetry.Event {
		return []telemetry.Event{
			start(0, 0, "rr", bytesA),
			start(0, 1, "reno", bytesB),
			ack(0.5, 0, bytesA/2),
			ack(0.5, 1, bytesB/2),
			ack(1.2, 0, bytesA), // closes the first fairness window
			done(1.5, 0, "rr", bytesA, 1, 0),
			done(1.5, 1, "reno", bytesB, 2, 1),
		}
	}
	segA, segB := segment(1000, 3000), segment(2000, 2000)

	jobSummary := func(evs []telemetry.Event) Summary {
		tab := New(Config{})
		emitAll(tab, evs)
		tab.Finalize()
		return tab.Summary()
	}
	merged := jobSummary(segA)
	merged.Merge(jobSummary(segB))

	concat := New(Config{})
	emitAll(concat, append(append([]telemetry.Event{}, segA...), segB...))
	concat.Finalize()

	if got, want := concat.Summary().Report().Render(), merged.Report().Render(); got != want {
		t.Fatalf("concatenated replay != merged job summaries:\n--- concat\n%s--- merged\n%s", got, want)
	}
}

// Summary merge keeps variants sorted and folds disjoint and shared
// variants; merging a summary into an empty one is the identity.
func TestSummaryMerge(t *testing.T) {
	mk := func(variant string, completed uint64) Summary {
		tab := New(Config{})
		for i := uint64(0); i < completed; i++ {
			tab.Emit(start(float64(i), int32(i), variant, 100))
			tab.Emit(done(float64(i)+0.5, int32(i), variant, 100, 0, 0))
		}
		tab.Finalize()
		return tab.Summary()
	}
	var s Summary
	s.Merge(mk("rr", 2))
	s.Merge(mk("cubic", 1))
	s.Merge(mk("rr", 3))
	if s.Started != 6 || s.Completed != 6 {
		t.Fatalf("merged counts: %+v", s)
	}
	if len(s.Variants) != 2 || s.Variants[0].Variant != "cubic" || s.Variants[1].Variant != "rr" {
		t.Fatalf("merged variants: %+v", s.Variants)
	}
	if s.Variants[1].Completed != 5 || s.Variants[1].FCT.Count() != 5 {
		t.Fatalf("rr merged: %+v", s.Variants[1])
	}
}

// A nil table renders as a zero report, so callers can serve /flows
// unconditionally.
func TestNilTableReport(t *testing.T) {
	var tab *FlowTable
	r := tab.Report()
	if r.Started != 0 || len(r.Variants) != 0 {
		t.Fatalf("nil table report: %+v", r)
	}
}

// The steady-state path — ACKs for a live, non-exemplar flow published
// through a bus with the table subscribed — must not allocate. This is
// the sender hot path's budget with flow analytics enabled.
func TestFlowTableHotPathAllocs(t *testing.T) {
	tab := New(Config{})
	bus := telemetry.NewBus(tab)
	bus.Publish(start(0, 0, "rr", 1e9))

	seq := int64(0)
	at := 0.001
	allocs := testing.AllocsPerRun(1000, func() {
		seq += 100
		at += 1e-6 // stays inside the first fairness window
		bus.Publish(ack(at, 0, seq))
	})
	if allocs != 0 {
		t.Fatalf("hot-path Emit allocates %v per event, want 0", allocs)
	}
}

// Ten-thousand-flow smoke: Poisson arrivals across three variants feed
// one table whose retained state stays O(K + variants) — the reservoir
// holds exactly K exemplar rings while every other flow leaves only
// aggregate histogram weight behind — and the report still carries FCT
// quantiles, goodput, and per-variant fairness. The run is repeated to
// pin byte-determinism of the rendering.
func TestTenThousandFlowPoissonSmoke(t *testing.T) {
	const flows, k = 10000, 8
	variants := []string{"rr", "reno", "sack"}

	run := func() (*FlowTable, string) {
		tab := New(Config{Exemplars: k, Seed: 99})
		rng := rand.New(rand.NewSource(1))
		at := 0.0
		live := 0
		for i := 0; i < flows; i++ {
			at += rng.ExpFloat64() * 0.01 // Poisson arrivals, mean 100 flows/s
			variant := variants[i%len(variants)]
			bytes := int64(2000 + rng.Intn(100_000))
			dur := 0.05 + rng.ExpFloat64()*0.5
			tab.Emit(start(at, int32(i), variant, bytes))
			tab.Emit(ack(at+dur/2, int32(i), bytes/2))
			tab.Emit(done(at+dur, int32(i), variant, bytes, float64(rng.Intn(5)), float64(rng.Intn(2))))
			live++
		}
		tab.Finalize()
		return tab, tab.Report().Render()
	}

	tab, render := run()
	s := tab.Summary()
	if s.Started != flows || s.Completed != flows || s.Live != 0 {
		t.Fatalf("counts: %+v", s)
	}
	if len(s.Variants) != len(variants) {
		t.Fatalf("%d variant aggregates, want %d", len(s.Variants), len(variants))
	}
	for _, v := range s.Variants {
		if v.Completed == 0 || v.FCT.Count() != v.Completed || v.Goodput.Count() != v.Completed {
			t.Fatalf("variant %s aggregates incomplete: %+v", v.Variant, v)
		}
	}
	r := s.Report()
	for _, v := range r.Variants {
		if !(v.FCTP50S > 0 && v.FCTP50S <= v.FCTP90S && v.FCTP90S <= v.FCTP99S) {
			t.Fatalf("variant %s FCT quantiles not ordered: %+v", v.Variant, v)
		}
		if v.GoodputMean <= 0 {
			t.Fatalf("variant %s goodput mean %v", v.Variant, v.GoodputMean)
		}
		if v.Fairness <= 0 || v.Fairness > 1 {
			t.Fatalf("variant %s fairness %v outside (0,1]", v.Variant, v.Fairness)
		}
	}
	if r.Fairness <= 0 || r.Fairness > 1 {
		t.Fatalf("overall fairness %v outside (0,1]", r.Fairness)
	}

	// Retention really is O(K + variants): exactly K exemplar rings,
	// each bounded by the ring cap, and nothing else holds events.
	exs := tab.Exemplars()
	if len(exs) != k {
		t.Fatalf("%d exemplars retained, want %d", len(exs), k)
	}
	retained := 0
	for _, ex := range exs {
		n := len(ex.Ring.Events())
		if n == 0 || n > exemplarEvents {
			t.Fatalf("exemplar %d ring holds %d events (cap %d)", ex.Flow, n, exemplarEvents)
		}
		retained += n
	}
	if max := k * exemplarEvents; retained > max {
		t.Fatalf("retained %d events, reservoir bound is %d", retained, max)
	}

	// Determinism: the same stream renders byte-identically.
	if _, again := run(); again != render {
		t.Fatalf("10k-flow report not deterministic:\n--- first\n%s--- second\n%s", render, again)
	}
}

// The steady-state cost of the analytics layer: one ACK folded into a
// live, non-exemplar flow. This is the per-event price every sender
// pays with a FlowTable subscribed.
func BenchmarkFlowTableEmit(b *testing.B) {
	tab := New(Config{})
	tab.Emit(start(0, 0, "rr", 1e12))
	e := ack(0.0005, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Seq = int64(i)
		tab.Emit(e)
	}
}

// Full lifecycle churn: flows starting and completing through the
// reservoir, the path a high-arrival-rate workload exercises.
func BenchmarkFlowTableLifecycle(b *testing.B) {
	tab := New(Config{Exemplars: 8, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int32(i % 1024)
		at := float64(i) * 1e-6
		tab.Emit(start(at, id, "rr", 1000))
		tab.Emit(done(at, id, "rr", 1000, 1, 0))
	}
}
