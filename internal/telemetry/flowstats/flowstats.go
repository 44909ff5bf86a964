// Package flowstats is the flow-scale analytics layer: a telemetry
// sink that turns the event bus into flow-level results at any flow
// count. Where a recorded FlowTrace retains every event of its
// connection (O(events) memory, fine for paper-scale dumbbells), a
// FlowTable keeps O(1) aggregate state per live flow and folds
// completed flows into per-variant log-bucketed histograms of flow
// completion time, goodput, and retransmissions — plus a seeded
// reservoir of K "exemplar" flows that do retain full event detail, so
// a million-flow run still yields a handful of fully-inspectable
// connections.
//
// The inputs are the sender's flow lifecycle events (KFlowStart /
// KFlowStats, which carry the variant name in Src) plus the ordinary
// ACK stream for goodput tracking; everything the table needs rides
// the events themselves, so it works equally over a live bus or over
// a decoded log (telemetry.Replay, then Finalize).
//
// Unlike most sinks, a FlowTable is safe for concurrent use: Emit
// takes an internal mutex so the obs server's /flows endpoint can
// snapshot it mid-run, and parallel sweep jobs may share one live
// table for monitoring. The deterministic reduction path is different:
// each job owns a private table and the per-variant aggregates merge
// in job order (Summary.Merge), which is byte-identical at any worker
// count because histogram merging is exact.
package flowstats

import (
	"sort"
	"sync"

	"rrtcp/internal/sim"
	"rrtcp/internal/stats"
	"rrtcp/internal/telemetry"
)

// fairnessWindow is the fairness-window length: one simulated second of
// goodput per Jain-index sample.
const fairnessWindow = sim.Time(1e9)

// exemplarEvents bounds each exemplar flow's retained event ring.
const exemplarEvents = 512

// Config parameterizes a FlowTable.
type Config struct {
	// Exemplars is K, the reservoir size: how many flows retain full
	// event detail. Zero keeps aggregates only.
	Exemplars int
	// Seed drives the reservoir's RNG; the same seed over the same
	// event stream always samples the same flows.
	Seed int64
	// Registry, when non-nil, mirrors the table's headline numbers as
	// live gauges (flows.all.live, flows.all.completed,
	// flows.all.fairness) and per-variant log histograms
	// (flows.<variant>.fct_s, .goodput_bps) for /metrics.
	Registry *telemetry.Registry
}

// Agg is the constant-size aggregate state of one variant. All
// sample-bearing fields are log-bucketed histograms, so the memory
// cost is independent of flow count and two Aggs merge exactly.
type Agg struct {
	Variant    string             `json:"variant"`
	Started    uint64             `json:"started"`
	Completed  uint64             `json:"completed"`
	Timeouts   uint64             `json:"timeouts"`
	Episodes   uint64             `json:"episodes"`
	BytesAcked int64              `json:"bytesAcked"`
	FCT        stats.LogHistogram `json:"fct"`      // completion time, seconds
	Goodput    stats.LogHistogram `json:"goodput"`  // per-flow goodput, bits/sec
	Rtx        stats.LogHistogram `json:"rtx"`      // retransmissions per flow
	Fairness   stats.LogHistogram `json:"fairness"` // per-window Jain index

	// Fairness-window scratch, reset every window close.
	wN     int
	wSum   float64
	wSumSq float64
}

// Merge folds o into a. Counts and histogram buckets add exactly, so
// merging is associative and order-independent in value (the repo's
// sweeps still merge in job order for byte-identical rendering).
func (a *Agg) Merge(o *Agg) {
	a.Started += o.Started
	a.Completed += o.Completed
	a.Timeouts += o.Timeouts
	a.Episodes += o.Episodes
	a.BytesAcked += o.BytesAcked
	a.FCT.Merge(&o.FCT)
	a.Goodput.Merge(&o.Goodput)
	a.Rtx.Merge(&o.Rtx)
	a.Fairness.Merge(&o.Fairness)
}

// liveFlow is the O(1) per-live-flow state.
type liveFlow struct {
	active     bool
	variant    string
	startAt    sim.Time
	acked      int64 // cumulative-ACK high-water
	windowBase int64 // acked at the current fairness-window start
	ring       *telemetry.Ring
	agg        *Agg
}

// Exemplar is one reservoir-sampled flow retaining full event detail.
type Exemplar struct {
	Flow    int32
	Variant string
	StartAt sim.Time
	Ring    *telemetry.Ring
}

// FlowTable implements telemetry.Sink. See the package comment for the
// memory and concurrency contract.
type FlowTable struct {
	mu  sync.Mutex
	cfg Config

	live      telemetry.PerFlow[liveFlow]
	liveCount int
	started   uint64
	completed uint64

	aggs map[string]*Agg

	// Reservoir sampling (Algorithm R) over flow-start order.
	rng       uint64
	seen      uint64
	exemplars []*Exemplar

	// Fairness windowing, driven by event timestamps.
	windowEnd sim.Time
	at        telemetry.Segmenter // clock and segment of the stream seen so far
	fairness  float64             // last closed overall window
	overall   stats.LogHistogram  // all closed overall windows

	gLive, gCompleted, gFairness telemetry.GaugeVar
	hasGauges                    bool
}

var _ telemetry.Sink = (*FlowTable)(nil)

// New returns an empty FlowTable.
func New(cfg Config) *FlowTable {
	t := &FlowTable{
		cfg:  cfg,
		aggs: make(map[string]*Agg),
		rng:  splitmixSeed(cfg.Seed),
	}
	if cfg.Registry != nil {
		t.gLive = cfg.Registry.GaugeVarOf("flows.all.live")
		t.gCompleted = cfg.Registry.GaugeVarOf("flows.all.completed")
		t.gFairness = cfg.Registry.GaugeVarOf("flows.all.fairness")
		t.hasGauges = true
	}
	return t
}

// splitmixSeed whitens the user seed so seeds 0,1,2... give unrelated
// streams (the same construction internal/sweep uses for job seeds).
func splitmixSeed(seed int64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next advances the splitmix64 state.
func (t *FlowTable) next() uint64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Emit implements telemetry.Sink. For flows not in the exemplar
// reservoir the steady-state path (ACKs, sends, window samples)
// performs no allocation; allocations happen only at flow start (table
// growth, first sight of a variant) and for exemplar rings.
func (t *FlowTable) Emit(ev telemetry.Event) {
	if ev.Flow == telemetry.NoFlow {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	if t.at.Regressed(&ev) {
		// Timestamps rewound: a new stream segment. A sweep republishes
		// each job's private capture in job order, every segment starting
		// over at t=0 — score the fairness accounting at the previous
		// segment's end and re-base the window clock on the new timeline,
		// so a replay of the concatenated stream reproduces the per-job
		// tables it was merged from.
		t.rollSegment()
	}
	t.at.Advance(&ev)
	if t.windowEnd != 0 && ev.At >= t.windowEnd {
		t.closeWindows(ev.At)
	}

	switch ev.Kind {
	case telemetry.KFlowStart:
		t.onStart(ev)
	case telemetry.KFlowStats:
		t.onDone(ev)
	case telemetry.KAck:
		if lf := t.flow(ev.Flow); lf != nil {
			if ev.Seq > lf.acked {
				lf.acked = ev.Seq
			}
			if lf.ring != nil {
				lf.ring.Emit(ev)
			}
		}
	case telemetry.KRecoveryEnter:
		if lf := t.flow(ev.Flow); lf != nil {
			lf.agg.Episodes++
			if lf.ring != nil {
				lf.ring.Emit(ev)
			}
		}
	default:
		if lf := t.flow(ev.Flow); lf != nil && lf.ring != nil {
			lf.ring.Emit(ev)
		}
	}
}

// flow returns the live state for id, or nil.
func (t *FlowTable) flow(id int32) *liveFlow {
	if lf := t.live.Lookup(id); lf != nil && lf.active {
		return lf
	}
	return nil
}

// agg resolves (creating on first sight) the variant's aggregate.
func (t *FlowTable) agg(variant string) *Agg {
	a := t.aggs[variant]
	if a == nil {
		a = &Agg{Variant: variant}
		t.aggs[variant] = a
	}
	return a
}

func (t *FlowTable) onStart(ev telemetry.Event) {
	lf := t.live.Get(ev.Flow)
	if lf == nil || lf.active {
		return // names no flow, or a duplicate start
	}
	*lf = liveFlow{
		active:  true,
		variant: ev.Src,
		startAt: ev.At,
		agg:     t.agg(ev.Src),
	}
	lf.agg.Started++
	t.started++
	t.liveCount++
	if t.windowEnd == 0 {
		t.windowEnd = ev.At + fairnessWindow
	}
	t.sample(lf, ev)
	if t.hasGauges {
		t.gLive.Set(float64(t.liveCount))
	}
}

// sample runs the reservoir-admission decision for a newly started
// flow (Algorithm R over flow-start order).
func (t *FlowTable) sample(lf *liveFlow, ev telemetry.Event) {
	k := uint64(t.cfg.Exemplars)
	if k == 0 {
		t.seen++
		return
	}
	var slot uint64
	if t.seen < k {
		slot = t.seen
		t.exemplars = append(t.exemplars, nil)
	} else {
		slot = t.next() % (t.seen + 1)
		if slot >= k {
			t.seen++
			return
		}
		// Evict the previous occupant: if it is still live, stop
		// recording its detail.
		if old := t.exemplars[slot]; old != nil {
			if prev := t.flow(old.Flow); prev != nil && prev.ring == old.Ring {
				prev.ring = nil
			}
		}
	}
	t.seen++
	ex := &Exemplar{
		Flow:    ev.Flow,
		Variant: ev.Src,
		StartAt: ev.At,
		Ring:    telemetry.NewRing(exemplarEvents),
	}
	ex.Ring.Emit(ev)
	t.exemplars[slot] = ex
	lf.ring = ex.Ring
}

func (t *FlowTable) onDone(ev telemetry.Event) {
	lf := t.flow(ev.Flow)
	if lf == nil {
		return
	}
	if lf.ring != nil {
		lf.ring.Emit(ev)
	}
	a := lf.agg
	a.Completed++
	a.Timeouts += uint64(ev.B)
	a.BytesAcked += ev.Seq
	a.Rtx.Observe(ev.A)
	fct := (ev.At - lf.startAt).Seconds()
	a.FCT.Observe(fct)
	var goodput float64
	if fct > 0 {
		goodput = float64(ev.Seq) * 8 / fct
		a.Goodput.Observe(goodput)
	} else {
		a.Goodput.Observe(0)
	}
	t.completed++
	t.liveCount--
	*lf = liveFlow{}
	if t.hasGauges {
		t.gLive.Set(float64(t.liveCount))
		t.gCompleted.Set(float64(t.completed))
		r := t.cfg.Registry
		r.ObserveLog("flows."+a.Variant+".fct_s", fct)
		r.ObserveLog("flows."+a.Variant+".goodput_bps", goodput)
	}
}

// closeWindows folds every fairness window that ended at or before now.
// Windows in which no flow moved bytes produce no sample.
func (t *FlowTable) closeWindows(now sim.Time) {
	for t.windowEnd != 0 && now >= t.windowEnd {
		if t.liveCount == 0 {
			// Fast-forward over an idle gap in one step.
			gap := now - t.windowEnd
			t.windowEnd += (gap/fairnessWindow + 1) * fairnessWindow
			return
		}
		var n int
		var sum, sumSq float64
		t.live.Each(func(_ int32, lf *liveFlow) {
			if !lf.active || lf.startAt >= t.windowEnd {
				return
			}
			x := float64(lf.acked - lf.windowBase)
			n++
			sum += x
			sumSq += x * x
			lf.windowBase = lf.acked
			if a := lf.agg; a != nil {
				a.wN++
				a.wSum += x
				a.wSumSq += x * x
			}
		})
		if sum > 0 {
			t.fairness = jain(n, sum, sumSq)
			t.overall.Observe(t.fairness)
			if t.hasGauges {
				t.gFairness.Set(t.fairness)
			}
		}
		for _, a := range t.aggs {
			if a.wSum > 0 {
				a.Fairness.Observe(jain(a.wN, a.wSum, a.wSumSq))
			}
			a.wN, a.wSum, a.wSumSq = 0, 0, 0
		}
		t.windowEnd += fairnessWindow
	}
}

// rollSegment ends the previous stream segment: pending fairness
// windows close at the last time seen, the window clock re-bases on the
// next event, and slots of flows whose stream ended mid-transfer are
// released for the new timeline. Those flows can never complete, so
// they stay counted live — matching the sum of the per-job tables a
// sweep's merged summary is built from.
func (t *FlowTable) rollSegment() {
	if t.windowEnd != 0 {
		t.closeWindows(t.at.Last)
	}
	t.windowEnd = 0
	t.live.Reset()
}

// jain computes Jain's fairness index (Σx)²/(n·Σx²) over n shares.
func jain(n int, sum, sumSq float64) float64 {
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// Flush closes any fairness window still open at now — call it when
// the simulation ends so the final partial activity is scored.
func (t *FlowTable) Flush(now sim.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.windowEnd != 0 && now >= t.windowEnd {
		t.closeWindows(now)
	}
}

// Finalize flushes fairness windows up to the latest event timestamp
// the table has seen — the end-of-run form of Flush for callers that
// do not track simulated time themselves.
func (t *FlowTable) Finalize() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.windowEnd != 0 && t.at.Last >= t.windowEnd {
		t.closeWindows(t.at.Last)
	}
}

// Exemplars returns the reservoir-sampled flows, ordered by slot. The
// rings are live views; callers inspecting them after the simulation
// ended may read them directly.
func (t *FlowTable) Exemplars() []*Exemplar {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Exemplar, 0, len(t.exemplars))
	for _, ex := range t.exemplars {
		if ex != nil {
			out = append(out, ex)
		}
	}
	return out
}

// Summary is the JSON-serializable, mergeable snapshot of a FlowTable:
// what sweep jobs return and what merged experiment results carry. It
// round-trips through encoding/json (the checkpoint journal path)
// without losing histogram buckets.
type Summary struct {
	Live      uint64 `json:"live"`
	Started   uint64 `json:"started"`
	Completed uint64 `json:"completed"`
	Exemplars int    `json:"exemplars"`
	// LastFairness is the most recently closed overall window's Jain
	// index; Overall accumulates every closed window.
	LastFairness float64            `json:"lastFairness"`
	Overall      stats.LogHistogram `json:"overallFairness"`
	// Variants holds the per-variant aggregates, sorted by name.
	Variants []Agg `json:"variants"`
}

// Summary snapshots the table. Safe to call while publishers emit.
func (t *FlowTable) Summary() Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Summary{
		Live:         uint64(t.liveCount),
		Started:      t.started,
		Completed:    t.completed,
		LastFairness: t.fairness,
		Overall:      t.overall,
	}
	for _, ex := range t.exemplars {
		if ex != nil {
			s.Exemplars++
		}
	}
	names := make([]string, 0, len(t.aggs))
	for name := range t.aggs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Variants = append(s.Variants, *t.aggs[name])
	}
	return s
}

// Merge folds o into s, keeping Variants sorted. Merging job summaries
// in job order yields byte-identical reports at any worker count.
func (s *Summary) Merge(o Summary) {
	s.Live += o.Live
	s.Started += o.Started
	s.Completed += o.Completed
	s.Exemplars += o.Exemplars
	if o.Overall.Count() > 0 {
		s.LastFairness = o.LastFairness
	}
	s.Overall.Merge(&o.Overall)
	for i := range o.Variants {
		ov := &o.Variants[i]
		idx := sort.Search(len(s.Variants), func(j int) bool {
			return s.Variants[j].Variant >= ov.Variant
		})
		if idx < len(s.Variants) && s.Variants[idx].Variant == ov.Variant {
			s.Variants[idx].Merge(ov)
			continue
		}
		s.Variants = append(s.Variants, Agg{})
		copy(s.Variants[idx+1:], s.Variants[idx:])
		s.Variants[idx] = *ov
	}
}
