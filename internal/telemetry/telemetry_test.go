package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	if b.Enabled() {
		t.Fatal("nil bus claims to be enabled")
	}
	b.Publish(Event{Kind: KSend}) // must not panic
	b.Subscribe(NullSink{})       // must not panic
}

func TestEmptyBusDisabled(t *testing.T) {
	b := NewBus()
	if b.Enabled() {
		t.Fatal("empty bus claims to be enabled")
	}
	b.Subscribe(nil)
	if b.Enabled() {
		t.Fatal("nil sink counted as a subscriber")
	}
	b.Subscribe(NullSink{})
	if !b.Enabled() {
		t.Fatal("bus with a sink reports disabled")
	}
}

func TestBusFanOut(t *testing.T) {
	r1, r2 := NewRing(0), NewRing(0)
	b := NewBus(r1, r2)
	b.Publish(Event{Kind: KSend, Flow: 3})
	if r1.Total() != 1 || r2.Total() != 1 {
		t.Fatalf("fan-out totals %d/%d, want 1/1", r1.Total(), r2.Total())
	}
	if got := r1.Events()[0].Flow; got != 3 {
		t.Fatalf("event flow %d, want 3", got)
	}
}

func TestRingWraps(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Kind: KSend, Seq: int64(i)})
	}
	if r.Total() != 5 {
		t.Fatalf("total %d, want 5", r.Total())
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	for i, want := range []int64{2, 3, 4} {
		if evs[i].Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, evs[i].Seq, want)
		}
	}
}

// A Reset ring reads and fills as a new one of its Cap does, and keeps
// its storage: a refill as long as what it held allocates nothing.
func TestRingResetIsANewRing(t *testing.T) {
	for _, capacity := range []int{0, 3} {
		r := NewRing(capacity)
		for i := 0; i < 300; i++ {
			r.Emit(Event{Kind: KSend, Src: "old", Seq: int64(i)})
		}
		kept := r.Events()
		r.Reset()
		if r.Total() != 0 || len(r.Events()) != 0 || r.EventsOf(KSend) != nil {
			t.Fatalf("cap %d: a reset ring still reads total %d, %d events", capacity, r.Total(), len(r.Events()))
		}
		fresh := NewRing(capacity)
		if avg := testing.AllocsPerRun(1, func() {
			r.Reset()
			for i := 0; i < 200; i++ {
				r.Emit(Event{Kind: Kind(1 + i%2), Seq: int64(i)})
			}
		}); avg != 0 {
			t.Fatalf("cap %d: refilling a reset ring allocates %.0f times, want 0", capacity, avg)
		}
		for i := 0; i < 200; i++ {
			fresh.Emit(Event{Kind: Kind(1 + i%2), Seq: int64(i)})
		}
		if !slices.Equal(r.Events(), fresh.Events()) || r.Total() != fresh.Total() || !slices.Equal(r.EventsOf(KSend), fresh.EventsOf(KSend)) {
			t.Fatalf("cap %d: a reset ring reads differently from a new one", capacity)
		}
		if kept[len(kept)-1].Src != "old" || kept[len(kept)-1].Seq != 299 {
			t.Fatalf("cap %d: Reset reached into an earlier reader's copy", capacity)
		}
	}
}

func TestRingEventsOf(t *testing.T) {
	r := NewRing(0)
	r.Emit(Event{Kind: KSend})
	r.Emit(Event{Kind: KDrop})
	r.Emit(Event{Kind: KSend})
	if got := len(r.EventsOf(KSend)); got != 2 {
		t.Fatalf("EventsOf(KSend) = %d, want 2", got)
	}
	if got := len(r.EventsOf(KTimeout)); got != 0 {
		t.Fatalf("EventsOf(KTimeout) = %d, want 0", got)
	}
}

// A bounded ring sizes itself once: Cap events, allocated on first
// Emit, never grown — and publication order survives any number of
// wraps, for both readers.
func TestBoundedRingAllocatesOnceAndKeepsOrder(t *testing.T) {
	const capacity = 512
	var r *Ring
	seq := int64(0)
	emit := func() {
		seq++
		r.Emit(Event{Kind: Kind(1 + seq%3), Seq: seq})
	}
	if avg := testing.AllocsPerRun(1, func() {
		r = &Ring{Cap: capacity}
		seq = 0
		for i := 0; i < 3*capacity+17; i++ {
			emit()
		}
	}); avg != 2 { // the Ring itself, and its one buffer
		t.Fatalf("a bounded ring's lifetime cost %.0f allocations, want 2 (ring + buffer)", avg)
	}
	if got := cap(r.evs); got != capacity {
		t.Fatalf("ring buffer capacity %d, want exactly Cap = %d", got, capacity)
	}
	for _, wraps := range []int{0, 1, capacity - 1, capacity} { // head at either end and in between
		for i := 0; i < wraps; i++ {
			emit()
		}
		evs := r.Events()
		if len(evs) != capacity {
			t.Fatalf("retained %d events, want %d", len(evs), capacity)
		}
		var ofKind []Event
		for i, ev := range evs {
			if want := seq - capacity + 1 + int64(i); ev.Seq != want {
				t.Fatalf("Events()[%d].Seq = %d, want %d (head %d)", i, ev.Seq, want, r.start)
			}
			if ev.Kind == KRetransmit {
				ofKind = append(ofKind, ev)
			}
		}
		if got := r.EventsOf(KRetransmit); !slices.Equal(got, ofKind) {
			t.Fatalf("EventsOf across a wrap (head %d) is not Events() filtered, in order", r.start)
		}
	}
	if r.Total() != uint64(seq) {
		t.Fatalf("Total() = %d, want %d", r.Total(), seq)
	}
}

func TestRingBeforeFirstEmitAndUnboundedAcrossChunks(t *testing.T) {
	for _, capacity := range []int{0, 8} {
		r := NewRing(capacity)
		if len(r.Events()) != 0 || r.EventsOf(KSend) != nil {
			t.Fatalf("cap %d: fresh ring is not empty", capacity)
		}
	}
	r := NewRing(0)
	const n = 64 + 128 + 5 // spills into a third chunk
	for i := 0; i < n; i++ {
		r.Emit(Event{Kind: Kind(1 + i%2), Seq: int64(i)})
	}
	evs := r.Events()
	if len(evs) != n {
		t.Fatalf("unbounded ring retained %d of %d", len(evs), n)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Fatalf("Events()[%d].Seq = %d", i, ev.Seq)
		}
	}
	sends := r.EventsOf(KSend)
	if len(sends) != (n+1)/2 {
		t.Fatalf("EventsOf(KSend) = %d events, want %d", len(sends), (n+1)/2)
	}
	for i, ev := range sends {
		if ev.Seq != int64(2*i) {
			t.Fatalf("EventsOf(KSend)[%d].Seq = %d, want %d", i, ev.Seq, 2*i)
		}
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := KSend; k < kindSentinel; k++ {
		name := k.String()
		if k == KSweepStall+1 {
			continue // the retired sweep-retry slot; TestResilienceKindsRoundTripNDJSON pins it
		}
		if k == KLinkTx+1 {
			continue // the retired sched slot, pinned below
		}
		if name == "?" || name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		if got := ParseKind(name); got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", name, got, k)
		}
	}
	if ParseKind("bogus") != 0 || ParseKind("") != 0 || ParseKind("?") != 0 {
		t.Fatal("bogus kind parsed")
	}
	if Kind(0).String() != "?" || kindSentinel.String() != "?" || Kind(255).String() != "?" {
		t.Fatal("out-of-vocabulary kind has a name")
	}
	// The scheduler profile's retired slot keeps the later kinds'
	// numbers but has no name: it prints as out-of-vocabulary and
	// nothing parses to it.
	if retired := KLinkTx + 1; retired != 18 || retired.String() != "?" || KLinkDown != retired+1 || ParseKind("sched") != 0 {
		t.Fatalf("retired slot %d prints %q; KLinkDown = %d; ParseKind(sched) = %d", retired, retired, KLinkDown, ParseKind("sched"))
	}
}

func TestComponentNamesRoundTrip(t *testing.T) {
	for c := CompLink; c < compSentinel; c++ {
		name := c.String()
		if name == "?" || name == "" {
			t.Fatalf("component %d has no name", c)
		}
		if got := ParseComponent(name); got != c {
			t.Fatalf("ParseComponent(%q) = %v, want %v", name, got, c)
		}
	}
	if ParseComponent("bogus") != 0 || ParseComponent("") != 0 || ParseComponent("?") != 0 {
		t.Fatal("bogus component parsed")
	}
	if Component(0).String() != "?" || compSentinel.String() != "?" || Component(255).String() != "?" {
		t.Fatal("out-of-vocabulary component has a name")
	}
	// The scheduler's retired slot (it was "sim") keeps the later
	// components' numbers, prints as out-of-vocabulary and parses from
	// nothing.
	if Component(1).String() != "?" || CompLink != 2 || ParseComponent("sim") != 0 {
		t.Fatalf("retired component 1 prints %q; CompLink = %d; ParseComponent(sim) = %d", Component(1), CompLink, ParseComponent("sim"))
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	events := []Event{
		{At: 1500 * time.Millisecond, Comp: CompRR, Kind: KRecoveryEnter, Flow: 0, Seq: 60000, A: 13.6, B: 6.5},
		{At: 2 * time.Second, Comp: CompQueue, Kind: KDrop, Src: "fwd", Flow: 1, Seq: 1000, A: 8, B: 1},
		{At: 3 * time.Second, Comp: CompLink, Kind: KLinkTx, Src: "bottleneck", Flow: NoFlow, Seq: 4096, A: 1000, B: 12},
	}
	for _, ev := range events {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Every line must be valid JSON on its own.
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d invalid JSON: %v\n%s", i+1, err, line)
		}
	}

	// Decoding returns the very events that were written.
	if got := mustDecode(t, &buf); !slices.Equal(got, events) {
		t.Fatalf("decoded %+v\nwant    %+v", got, events)
	}
}

// decodeAll decodes a log into an unbounded Ring and returns its events.
func decodeAll(r io.Reader) ([]Event, DecodeStats, error) {
	ring := NewRing(0)
	stats, err := DecodeNDJSON(r, ring)
	return ring.Events(), stats, err
}

// mustDecode decodes a log every line of which must be a well-formed
// event of the current vocabulary.
func mustDecode(t *testing.T, r io.Reader) []Event {
	t.Helper()
	events, stats, err := decodeAll(r)
	if err != nil || stats.Skipped > 0 || stats.Unknown > 0 {
		t.Fatalf("decode: err=%v stats=%+v", err, stats)
	}
	return events
}

func TestDecodeNDJSONRejectsGarbage(t *testing.T) {
	for _, line := range []string{"not json", `{"t":1}`, `{"t":"not a number"}`} {
		events, stats, err := decodeAll(strings.NewReader(line + "\n"))
		if err != nil || len(events) != 0 || stats.Lines != 1 || stats.Skipped != 1 || stats.FirstErr == nil {
			t.Fatalf("%q: events=%d stats=%+v err=%v, want one skipped line", line, len(events), stats, err)
		}
	}
	events, stats, err := decodeAll(strings.NewReader("\n\n"))
	if err != nil || len(events) != 0 || stats != (DecodeStats{}) {
		t.Fatalf("blank input: events=%d stats=%+v err=%v", len(events), stats, err)
	}
}

// A well-formed line whose component or kind this build does not know
// is neither an event nor damage: it is counted apart from the skips.
func TestDecodeNDJSONCountsUnknownVocabulary(t *testing.T) {
	log := `{"t":1,"comp":"rr","kind":"cwnd","flow":0,"cwnd":4}
{"t":2,"comp":"rr","kind":"episode-ledger","flow":0,"losses":3}
{"t":3,"comp":"martian","kind":"ack","flow":0}
`
	events, stats, err := decodeAll(strings.NewReader(log))
	if err != nil || len(events) != 1 || events[0].A != 4 {
		t.Fatalf("events=%+v err=%v, want the one known line", events, err)
	}
	if stats.Lines != 3 || stats.Skipped != 0 || stats.FirstErr != nil || stats.Unknown != 2 {
		t.Fatalf("stats = %+v, want 3 lines, none skipped, 2 unknown", stats)
	}
	if got := stats.FirstUnknown.Error(); !strings.Contains(got, "line 2") || !strings.Contains(got, "rr/episode-ledger") {
		t.Fatalf("FirstUnknown = %q", got)
	}
}

func TestRegistryCountersGaugesHists(t *testing.T) {
	r := NewRegistry()
	r.Inc("a.count", 2)
	r.Inc("a.count", 3)
	if r.Counter("a.count") != 5 {
		t.Fatalf("counter = %d", r.Counter("a.count"))
	}
	r.SetGauge("g", 7.5)
	if r.Gauge("g") != 7.5 {
		t.Fatalf("gauge = %v", r.Gauge("g"))
	}
	r.ObserveLog("h", 1)
	r.ObserveLog("h", 3)
	h := r.LogHist("h")
	if h == nil || h.Count() != 2 || h.Mean() != 2 || h.Max() != 3 {
		t.Fatalf("hist wrong: %+v", h)
	}
	snap := r.Snapshot()
	for _, want := range []string{"a.count", "g", "h"} {
		if !strings.Contains(snap, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, snap)
		}
	}
	if snap != r.Snapshot() {
		t.Fatal("snapshot not deterministic")
	}
}

func TestMetricsSinkAggregates(t *testing.T) {
	ms := NewMetricsSink()
	bus := NewBus(ms)
	bus.Publish(Event{Comp: CompSender, Kind: KSend, Flow: 0})
	bus.Publish(Event{Comp: CompSender, Kind: KRetransmit, Flow: 0})
	bus.Publish(Event{Comp: CompSender, Kind: KTimeout, Flow: 0})
	bus.Publish(Event{Comp: CompSender, Kind: KRecoveryEnter, Flow: 0})
	bus.Publish(Event{Comp: CompQueue, Kind: KEnqueue, Src: "fwd", Flow: 0, A: 3})
	bus.Publish(Event{Comp: CompQueue, Kind: KDrop, Src: "fwd", Flow: 0, A: 8, B: 1})
	bus.Publish(Event{Comp: CompLoss, Kind: KDrop, Src: "inject", Flow: 0})
	bus.Publish(Event{Comp: CompLink, Kind: KLinkTx, Src: "fwd", Flow: 0, A: 1000})

	checks := map[string]uint64{
		"sender.0.data_sent":        1,
		"sender.0.retransmits":      1,
		"sender.0.timeouts":         1,
		"sender.0.fast_retransmits": 1,
		"queue.fwd.enqueued":        1,
		"queue.fwd.drops":           1,
		"loss.inject.drops":         1,
		"link.fwd.tx_packets":       1,
	}
	for name, want := range checks {
		if got := ms.R.Counter(name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if got := ms.R.Counter("link.fwd.tx_bytes"); got != 1000 {
		t.Fatalf("tx_bytes = %d, want 1000", got)
	}
	if got := ms.R.Gauge("queue.fwd.occupancy"); got != 3 {
		t.Fatalf("occupancy gauge = %v, want 3", got)
	}
}

// TestMetricsSinkFig5SnapshotGolden replays the committed fig5 event log
// into a MetricsSink and compares the registry dump with
// testdata/metrics_fig5.golden, which the sink that still formatted a
// metric name per event wrote: resolving a flow's cells once must not
// move a name or a value.
func TestMetricsSinkFig5SnapshotGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "fig5_drops3.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ms := NewMetricsSink()
	Replay(mustDecode(t, f), ms)
	golden := filepath.Join("testdata", "metrics_fig5.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(ms.R.Snapshot()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := ms.R.Snapshot(); got != string(want) {
		t.Errorf("registry dump drifted from the golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// An episode still open when the segment rolls (the next run of a
// republished multi-run log) is dropped, never measured against the next
// run's clock.
func TestMetricsSinkEpisodeNeverSpansSegments(t *testing.T) {
	ms := NewMetricsSink()
	Replay([]Event{
		{At: 1e9, Comp: CompSender, Kind: KRecoveryEnter, Flow: 0},
		{At: 3e9, Comp: CompSender, Kind: KSend, Flow: 0},
		// The next run: the clock restarts.
		{At: 1e8, Comp: CompSender, Kind: KSend, Flow: 0},
		{At: 2e9, Comp: CompSender, Kind: KRecoveryExit, Flow: 0},
		{At: 25e8, Comp: CompSender, Kind: KRecoveryEnter, Flow: 0},
		{At: 3e9, Comp: CompSender, Kind: KRecoveryExit, Flow: 0},
	}, ms)
	if h := ms.R.LogHist("sender.0.episode_s"); h == nil || h.Count() != 1 || h.Sum() != 0.5 {
		t.Fatalf("episode_s:\n%s\nwant the second run's one 0.5 s episode", ms.R.Snapshot())
	}
}

// A log from outside the program may carry any flow id. One at 2^24 or
// near MaxInt32 must cost what a small one does, and a segment roll
// must drop its open episode as it does a small id's.
func TestMetricsSinkLargeFlowIDStaysSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ms := NewMetricsSink()
	for _, id := range []int32{1 << 24, math.MaxInt32} {
		Replay([]Event{
			{At: 0, Comp: CompSender, Kind: KSend, Flow: id},
			{At: 1e9, Comp: CompSender, Kind: KRecoveryEnter, Flow: id},
			{At: 15e8, Comp: CompSender, Kind: KRecoveryExit, Flow: id},
			{At: 2e9, Comp: CompSender, Kind: KRecoveryEnter, Flow: id},
			// The next run: the clock restarts.
			{At: 1e8, Comp: CompSender, Kind: KRecoveryExit, Flow: id},
		}, ms)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("MetricsSink allocated %d bytes for two flows", grew)
	}
	for _, name := range []string{"sender.16777216.", "sender.2147483647."} {
		if got := ms.R.Counter(name + "fast_retransmits"); got != 2 {
			t.Errorf("%sfast_retransmits = %d, want 2", name, got)
		}
		if h := ms.R.LogHist(name + "episode_s"); h == nil || h.Count() != 1 || h.Sum() != 0.5 {
			t.Errorf("%sepisode_s:\n%s\nwant one 0.5 s episode", name, ms.R.Snapshot())
		}
	}
}

// senderStream is the flow-scoped steady state of a run: what each of
// ten senders publishes per ACK clock tick, plus a gauge sample.
func senderStream() []Event {
	var evs []Event
	for flow := int32(0); flow < 10; flow++ {
		evs = append(evs,
			Event{Comp: CompSender, Kind: KAck, Flow: flow, Seq: 1000},
			Event{Comp: CompSender, Kind: KCwnd, Flow: flow, A: 8.5},
			Event{Comp: CompSender, Kind: KSend, Flow: flow, Seq: 9000},
			Event{Comp: CompSender, Kind: KRetransmit, Flow: flow, Seq: 1000},
			Event{Comp: CompSender, Kind: KSample, Src: "srtt", Flow: flow, A: 0.117},
		)
	}
	return evs
}

func TestMetricsSinkFlowEventsDoNotAllocate(t *testing.T) {
	ms := NewMetricsSink()
	stream := senderStream()
	Replay(stream, ms) // first sight of each flow resolves its cells
	if avg := testing.AllocsPerRun(100, func() { Replay(stream, ms) }); avg != 0 {
		t.Fatalf("MetricsSink.Emit allocates %.2f times per %d flow-scoped events in steady state, want 0", avg, len(stream))
	}
	if got := ms.R.Counter("sender.9.data_sent"); got != 102 {
		t.Fatalf("sender.9.data_sent = %d, want 102", got)
	}
	if got := ms.R.Gauge("sender.3.sample_srtt"); got != 0.117 {
		t.Fatalf("sender.3.sample_srtt = %v", got)
	}
}

// A queue's, a link's and an episode's cells are resolved once too: the
// sink builds no metric name per enqueue, transmission or episode end.
func TestMetricsSinkQueueLinkAndEpisodeEventsDoNotAllocate(t *testing.T) {
	ms := NewMetricsSink()
	stream := []Event{
		{Comp: CompQueue, Kind: KEnqueue, Src: "fwd", Flow: NoFlow, A: 3},
		{Comp: CompLink, Kind: KLinkTx, Src: "fwd", Flow: NoFlow, A: 1000},
		{Comp: CompSender, Kind: KRecoveryEnter, Flow: 0},
		{Comp: CompSender, Kind: KRecoveryExit, Flow: 0},
	}
	cycle := func() {
		for i := range stream {
			stream[i].At += time.Millisecond
		}
		Replay(stream, ms)
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("MetricsSink.Emit allocates %.2f times per %d queue, link and episode events, want 0", avg, len(stream))
	}
	if got := ms.R.Counter("link.fwd.tx_bytes"); got != 102*1000 {
		t.Fatalf("link.fwd.tx_bytes = %d, want %d", got, 102*1000)
	}
	if h := ms.R.LogHist("sender.0.episode_s"); h == nil || h.Count() != 102 {
		t.Fatalf("episode_s:\n%s\nwant 102 episodes", ms.R.Snapshot())
	}
}

// BenchmarkMetricsSinkEmit is the per-event cost of folding the
// flow-scoped stream (ten flows) into the registry.
func BenchmarkMetricsSinkEmit(b *testing.B) {
	benchmarkMetricsSinkEmit(b, NewMetricsSink())
}

// BenchmarkMetricsSinkEmitInRecovery is the same stream while flow 0 is
// in recovery: on real streams between a sixth and three quarters of the
// events arrive while some flow is.
func BenchmarkMetricsSinkEmitInRecovery(b *testing.B) {
	ms := NewMetricsSink()
	ms.Emit(Event{Comp: CompSender, Kind: KRecoveryEnter, Flow: 0})
	benchmarkMetricsSinkEmit(b, ms)
}

func benchmarkMetricsSinkEmit(b *testing.B, ms *MetricsSink) {
	stream := senderStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.Emit(stream[i%len(stream)])
	}
}

// BenchmarkMetricsSinkEmitQueue is the per-event cost of the queue and
// link stream: a packet's enqueue at a bottleneck and its transmission,
// on the forward and the reverse path.
func BenchmarkMetricsSinkEmitQueue(b *testing.B) {
	stream := []Event{
		{Comp: CompQueue, Kind: KEnqueue, Src: "fwd", Flow: 0, A: 3},
		{Comp: CompLink, Kind: KLinkTx, Src: "fwd", Flow: 0, A: 1000, B: 2},
		{Comp: CompQueue, Kind: KEnqueue, Src: "rev", Flow: 0, A: 1},
		{Comp: CompLink, Kind: KLinkTx, Src: "rev", Flow: 0, A: 40, B: 0},
	}
	ms := NewMetricsSink()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.Emit(stream[i%len(stream)])
	}
}
