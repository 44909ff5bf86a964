package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"math/rand"
	"runtime"
	"time"

	"rrtcp"
	"rrtcp/internal/telemetry"
)

// scale sizes the workloads: fullScale is what the benchmark measures,
// smokeScale only proves the plumbing (bench_test.go).
type scale struct {
	smoke       bool
	tenHorizon  rrtcp.Time // simulated time of steady10 / telemetry10
	manyFlows   int
	manyHorizon rrtcp.Time
	chaosRuns   int
}

var (
	fullScale  = scale{tenHorizon: 600 * time.Second, manyFlows: 2200, manyHorizon: 120 * time.Second, chaosRuns: 400}
	smokeScale = scale{smoke: true, tenHorizon: 20 * time.Second, manyFlows: 50, manyHorizon: 20 * time.Second, chaosRuns: 10}
)

// rounder is a prepared workload: its inputs are generated, and each
// call builds the world (or experiments) afresh, runs it, and collects
// the model statistics.
type rounder interface {
	// round runs the workload as the end-to-end metrics measure it.
	round() *roundResult
	// crossCheck, when non-nil, runs the round a second way that must
	// give the same digest (chaos-sweep: one worker instead of W).
	crossCheck() *roundResult
	// layers runs the traced rounds for about budget of wall time and
	// reduces them to this workload's per-layer metrics.
	layers(tr *tracer, budget time.Duration, chk *checker, keepSpans bool) *layerReport
}

// roundResult is what one round leaves behind.
type roundResult struct {
	// digest is the sha256 over model-level statistics only (see
	// README.md: never over Processed() or HeapHighWater()).
	digest string
	// fail says why the round failed its own checks; empty if it passed.
	fail string
	// keep holds the world or results reachable, for retained_mb.
	keep any
	wall time.Duration
	// The rest is filled for the traced run's benefit; reading the
	// counters costs a few loads per round.
	build, install, run time.Duration
	events, pkts        uint64
	world               *worldCounts
	suite               *suiteTimes
}

type workloadDef struct {
	name string
	// workers is the sweep worker count the workload runs with.
	workers int
	prepare func(seed int64, sc scale) rounder
}

// sweepWorkers is min(nproc, 4): the one multi-goroutine workload never
// runs more goroutines than processors.
func sweepWorkers() int { return min(runtime.GOMAXPROCS(0), 4) }

var workloads = []*workloadDef{
	{name: "steady10", workers: 1, prepare: func(seed int64, sc scale) rounder {
		return tenFlowWorld(seed, sc, noBus)
	}},
	{name: "telemetry10", workers: 1, prepare: func(seed int64, sc scale) rounder {
		return tenFlowWorld(seed, sc, fullBus)
	}},
	{name: "manyflow", workers: 1, prepare: manyFlowWorld},
	{name: "chaos-sweep", workers: sweepWorkers(), prepare: func(seed int64, sc scale) rounder {
		return &suite{parallel: sweepWorkers(), checkParallel: 1, items: []suiteItem{
			{name: "chaos", opts: rrtcp.ExperimentOptions{Runs: sc.chaosRuns, Seed: seed}},
		}}
	}},
	{name: "paper-suite", workers: 1, prepare: paperSuite},
}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// ---- dumbbell worlds: steady10, telemetry10, manyflow ----------------------

// busKind selects what listens to a world's telemetry.
type busKind int

const (
	worldBus busKind = iota // in a variant: whatever the world itself wires
	noBus                   // nil bus: every publish site is one nil check
	fullBus                 // NDJSON + FlowTable{Exemplars: 2} + SpanSink
	nullBus                 // a bus with only NullSink: events built, then dropped
)

// world holds a dumbbell workload's pre-generated inputs.
type world struct {
	seed    int64
	specs   []rrtcp.FlowSpec
	config  func(s *rrtcp.Scheduler) rrtcp.DumbbellConfig
	horizon rrtcp.Time
	// finite worlds fail a round in which any flow did not finish.
	finite bool
	bus    busKind
}

func tenFlowWorld(seed int64, sc scale, bus busKind) *world {
	specs := make([]rrtcp.FlowSpec, 10)
	for i := range specs {
		specs[i] = rrtcp.FlowSpec{Kind: rrtcp.RR, Bytes: rrtcp.Infinite, Window: 30}
	}
	return &world{
		seed: seed, specs: specs, horizon: sc.tenHorizon, bus: bus,
		config: func(s *rrtcp.Scheduler) rrtcp.DumbbellConfig {
			cfg := rrtcp.PaperDropTailConfig(10)
			cfg.ForwardQueue = rrtcp.Must(rrtcp.NewREDQueue(s, rrtcp.PaperREDConfig()))
			return cfg
		},
	}
}

func manyFlowWorld(seed int64, sc scale) rounder {
	rng := rand.New(rand.NewSource(seed))
	kinds := rrtcp.Kinds()
	specs := make([]rrtcp.FlowSpec, sc.manyFlows)
	for i := range specs {
		specs[i] = rrtcp.FlowSpec{
			Kind:    kinds[i%len(kinds)],
			Bytes:   200 * 1000,
			StartAt: rrtcp.Time(rng.Int63n(int64(5 * time.Second))),
			NoTrace: true,
		}
	}
	return &world{
		seed: seed, specs: specs, horizon: sc.manyHorizon, finite: true, bus: noBus,
		config: func(s *rrtcp.Scheduler) rrtcp.DumbbellConfig {
			return rrtcp.DumbbellConfig{
				Flows:           len(specs),
				BottleneckBps:   100e6,
				BottleneckDelay: 20 * time.Millisecond,
				SideBps:         1e9,
				SideDelay:       time.Millisecond,
				ForwardQueue:    rrtcp.Must(rrtcp.NewDropTailQueue(s, 400)),
			}
		},
	}
}

// variant is how one round of a world departs from the measured
// configuration; the zero variant is the measured configuration.
type variant struct {
	// shim interposes the tracing shims (and wraps the sinks).
	shim bool
	// noTrace forces FlowSpec.NoTrace on every flow.
	noTrace bool
	// bus, unless worldBus, overrides the world's telemetry wiring.
	bus busKind
}

// worldCounts are a world round's exact model and engine counts.
type worldCounts struct {
	heapHighWater      int
	drops, enqueued    uint64
	poolGets, poolHits uint64
	retransmits        uint64
	timeouts           uint64
	unfinished         int
	telemetryEvents    uint64
	ndjsonBytes        uint64
	recoveryAcks       uint64 // RR ACKs processed in, into or out of recovery
}

// worldKeep is what retained_mb keeps reachable after a world round.
type worldKeep struct {
	sched *rrtcp.Scheduler
	net   *rrtcp.Dumbbell
	flows []*rrtcp.Flow
	sinks []rrtcp.TelemetrySink
}

func (w *world) round() *roundResult      { return w.run(variant{}, nil) }
func (w *world) crossCheck() *roundResult { return nil }

func (w *world) run(v variant, tr *tracer) *roundResult {
	res := &roundResult{world: &worldCounts{}}
	wc := res.world
	start := time.Now()
	_, pkts0 := rrtcp.SimCounters()
	scope := tr.begin(spanRound)

	sched := rrtcp.NewScheduler(w.seed)
	s := tr.begin(spanBuild)
	net, err := rrtcp.NewDumbbell(sched, w.config(sched))
	tr.end(s)
	res.build = time.Since(start)
	if err != nil {
		res.fail = err.Error()
		return res
	}

	busKind := w.bus
	if v.bus != worldBus {
		busKind = v.bus
	}
	var (
		bus    *rrtcp.TelemetryBus
		sinks  []rrtcp.TelemetrySink
		ndjson *rrtcp.NDJSONSink
		stream = &countingWriter{}
	)
	switch busKind {
	case fullBus:
		ndjson = rrtcp.NewNDJSONSink(stream)
		sinks = []rrtcp.TelemetrySink{ndjson, rrtcp.NewFlowTable(rrtcp.FlowStatsConfig{Exemplars: 2}), rrtcp.NewSpanSink()}
		bus = rrtcp.NewTelemetryBus()
		for i, sink := range sinks {
			if v.shim {
				sink = &timedSink{tr: tr, name: sinkSpans[i], next: sink}
			}
			bus.Subscribe(sink)
		}
	case nullBus:
		bus = rrtcp.NewTelemetryBus(telemetry.NullSink{})
	}
	if bus != nil {
		net.Instrument(bus)
	}

	specs := w.specs
	if bus != nil || v.noTrace {
		specs = append([]rrtcp.FlowSpec(nil), specs...)
		for i := range specs {
			specs[i].Telemetry = bus
			specs[i].NoTrace = specs[i].NoTrace || v.noTrace
		}
	}
	installStart := time.Now()
	s = tr.begin(spanInstall)
	var flows []*rrtcp.Flow
	if v.shim {
		flows, err = installShimmed(tr, wc, sched, net, specs)
	} else {
		flows, err = rrtcp.InstallFlows(sched, net, specs)
	}
	tr.end(s)
	res.install = time.Since(installStart)
	if err != nil {
		res.fail = err.Error()
		return res
	}

	runStart := time.Now()
	s = tr.begin(spanRun)
	sched.Run(w.horizon)
	tr.end(s)
	res.run = time.Since(runStart)

	// Collect the model statistics and fold them into the digest.
	h := sha256.New()
	for _, f := range flows {
		snd := f.Sender
		done := snd.Done()
		putUint64(h, uint64(snd.SndUna()), uint64(snd.Retransmits()), uint64(snd.Timeouts()), boolBit(done))
		wc.retransmits += uint64(snd.Retransmits())
		wc.timeouts += uint64(snd.Timeouts())
		if !done {
			wc.unfinished++
		}
	}
	q := net.BottleneckQueue()
	wc.drops, wc.enqueued = q.Drops, q.Enqueued
	putUint64(h, net.ForwardLink().TxPackets, net.ReverseLink().TxPackets, q.Drops, q.Enqueued)
	if ndjson != nil {
		if err := ndjson.Close(); err != nil {
			res.fail = err.Error()
		}
		wc.ndjsonBytes, wc.telemetryEvents = stream.n, stream.lines
		putUint64(h, stream.n, uint64(stream.crc))
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	if w.finite && wc.unfinished > 0 {
		res.fail = fmt.Sprintf("%d of %d flows did not finish", wc.unfinished, len(flows))
	}

	wc.heapHighWater = sched.HeapHighWater()
	wc.poolGets, wc.poolHits = net.Pool().Gets, net.Pool().Hits
	res.events = sched.Processed()
	_, pkts1 := rrtcp.SimCounters()
	res.pkts = pkts1 - pkts0
	res.keep = &worldKeep{sched, net, flows, sinks}
	tr.end(scope)
	res.wall = time.Since(start)
	return res
}

func putUint64(h hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// countingWriter stands in for the NDJSON log file: it counts the bytes
// and lines (one per event) and checksums them (CRC-32C, hardware
// accelerated) so the digest covers the whole stream without holding it.
type countingWriter struct {
	n, lines uint64
	crc      uint32
}

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	newline    = []byte{'\n'}
)

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += uint64(len(p))
	c.lines += uint64(bytes.Count(p, newline))
	c.crc = crc32.Update(c.crc, castagnoli, p)
	return len(p), nil
}

// ---- experiment suites: chaos-sweep, paper-suite ---------------------------

type suiteItem struct {
	name string
	opts rrtcp.ExperimentOptions
}

// suite runs registered experiments back to back through the facade,
// as `rrsim` does, appending every rendering to one buffer.
type suite struct {
	items    []suiteItem
	parallel int
	// checkParallel, when non-zero, is the worker count of crossCheck.
	checkParallel int
}

// paperSuite is exactly `rrsim all`'s sequence: registry order, chaos
// skipped, fig5 at 3 and 6 drops.
func paperSuite(seed int64, sc scale) rounder {
	s := &suite{parallel: 1}
	base := rrtcp.ExperimentOptions{Seed: seed, Quick: sc.smoke}
	if sc.smoke {
		base.Variants = []rrtcp.Kind{rrtcp.RR}
		base.Cells, base.Flows = 2, 8
	}
	for _, r := range rrtcp.Experiments() {
		switch r.Name {
		case "chaos":
		case "table5", "twoway", "bursty":
			// No option shrinks these three; the smoke run, which only
			// proves the plumbing, leaves them out.
			if !sc.smoke {
				s.items = append(s.items, suiteItem{r.Name, base})
			}
		case "fig5":
			for _, drops := range []int{3, 6} {
				o := base
				o.Drops = drops
				s.items = append(s.items, suiteItem{r.Name, o})
			}
		default:
			s.items = append(s.items, suiteItem{r.Name, base})
		}
	}
	return s
}

func (s *suite) round() *roundResult { return s.run(s.parallel, nil) }

func (s *suite) crossCheck() *roundResult {
	if s.checkParallel == 0 {
		return nil
	}
	return s.run(s.checkParallel, nil)
}

func (s *suite) run(parallel int, tr *tracer) *roundResult {
	res := &roundResult{suite: newSuiteTimes()}
	start := time.Now()
	events0, pkts0 := rrtcp.SimCounters()
	scope := tr.begin(spanRound)
	var (
		text bytes.Buffer
		keep []rrtcp.ExperimentResult
	)
	for _, it := range s.items {
		rendered, result, err := runExperiment(it, parallel, tr, res.suite)
		if err != nil {
			res.fail = fmt.Sprintf("%s: %v", it.name, err)
			break
		}
		text.WriteString(rendered)
		text.WriteByte('\n')
		keep = append(keep, result)
		if v, ok := result.(interface{ Violated() int }); ok && v.Violated() > 0 {
			res.fail = fmt.Sprintf("%s: %d invariant violation(s)", it.name, v.Violated())
		}
		if st, ok := result.(*rrtcp.StressResult); ok && len(st.Degraded) > 0 {
			res.fail = fmt.Sprintf("%s: %d degraded cell(s)", it.name, len(st.Degraded))
		}
	}
	sum := sha256.Sum256(text.Bytes())
	res.digest = hex.EncodeToString(sum[:])
	events1, pkts1 := rrtcp.SimCounters()
	res.events, res.pkts = events1-events0, pkts1-pkts0
	res.keep = keep
	tr.end(scope)
	res.wall = time.Since(start)
	return res
}

// runExperiment is rrsim's buildAndRun plus Render. With a tracer it
// times Jobs, the sweep, every job, Reduce and Render from outside.
func runExperiment(it suiteItem, parallel int, tr *tracer, st *suiteTimes) (string, rrtcp.ExperimentResult, error) {
	start := time.Now()
	scope := tr.begin(spanExperiment)
	defer func() {
		tr.end(scope)
		st.perExperiment[it.name] += time.Since(start)
	}()
	e, err := rrtcp.BuildExperiment(it.name, it.opts)
	if err != nil {
		return "", nil, err
	}
	if tr != nil {
		e = &timedExperiment{Experiment: e, tr: tr, st: st, workers: parallel}
	}
	result, err := rrtcp.RunExperiment(e, rrtcp.ExperimentRunOptions{Parallel: parallel})
	if err != nil {
		return "", nil, err
	}
	renderStart := time.Now()
	s := tr.begin(spanRender)
	rendered := result.Render()
	tr.end(s)
	st.render += time.Since(renderStart)
	return rendered, result, nil
}
