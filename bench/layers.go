package main

import (
	"fmt"
	"sort"
	"time"

	"rrtcp"
	"rrtcp/internal/core"
	"rrtcp/internal/experiments"
	"rrtcp/internal/netem"
	"rrtcp/internal/sweep"
	"rrtcp/internal/tcp"
	"rrtcp/internal/trace"
	"rrtcp/internal/workload"
)

// ---- shims: timing calls into the layers' public functions -----------------

// shim is a netem.Node that times the node behind it.
type shim struct {
	tr   *tracer
	name spanName
	next netem.Node
}

func (s *shim) Receive(p *netem.Packet) {
	rec := s.tr.enter(s.name)
	s.next.Receive(p)
	s.tr.exit(rec)
}

// rrSenderShim additionally counts the ACKs an RR sender handles off
// the fast path: in recovery before the ACK, after it, or both.
type rrSenderShim struct {
	shim
	rr *core.RRStrategy
	wc *worldCounts
}

func (s *rrSenderShim) Receive(p *netem.Packet) {
	off := s.rr.InRecovery()
	s.shim.Receive(p)
	if off || s.rr.InRecovery() {
		s.wc.recoveryAcks++
	}
}

// timedSink times one subscribed sink's Emit.
type timedSink struct {
	tr   *tracer
	name spanName
	next rrtcp.TelemetrySink
}

func (s *timedSink) Emit(ev rrtcp.TelemetryEvent) {
	rec := s.tr.enter(s.name)
	s.next.Emit(ev)
	s.tr.exit(rec)
}

// installShimmed is workload.InstallAll with a shim on every seam an
// endpoint has: in front of the sender (ACKs in), in front of the
// receiver (data in), behind each as its output node, and at both
// bottleneck entries. workload.Install hands the sender its output node
// at construction and offers no way to replace it, so the wiring is
// repeated here; every traced round checks that a shimmed world gives
// the same model digest as the real installer's.
func installShimmed(tr *tracer, wc *worldCounts, sched *rrtcp.Scheduler, d *rrtcp.Dumbbell, specs []rrtcp.FlowSpec) ([]*rrtcp.Flow, error) {
	d.SetForwardEntry(&shim{tr, spanFwdEntry, d.ForwardEntry()})
	d.SetReverseEntry(&shim{tr, spanRevEntry, d.ReverseEntry()})
	flows := make([]*rrtcp.Flow, 0, len(specs))
	for idx, spec := range specs {
		strat, err := spec.NewStrategy()
		if err != nil {
			return nil, err
		}
		var ft *trace.FlowTrace
		if !spec.NoTrace {
			ft = trace.New(idx, spec.Kind.String())
		}
		recv := tcp.NewReceiver(sched, idx, &shim{tr, spanAckPort, d.ReceiverPort(idx)}, ft)
		recv.SACKEnabled = spec.Kind.NeedsSACKReceiver()
		recv.DelayedAck = spec.DelayedAck
		recv.Telemetry = spec.Telemetry
		recv.Pool = d.Pool()
		snd, err := tcp.New(sched, &shim{tr, spanDataPort, d.SenderPort(idx)}, strat, tcp.Config{
			Flow:            idx,
			MSS:             spec.MSS,
			Window:          spec.Window,
			InitialSSThresh: spec.InitialSSThresh,
			TotalBytes:      spec.Bytes,
			SmoothStart:     spec.SmoothStart,
			Trace:           ft,
			Telemetry:       spec.Telemetry,
			OnDone:          spec.OnDone,
			Pool:            d.Pool(),
		})
		if err != nil {
			return nil, fmt.Errorf("flow %d: %w", idx, err)
		}
		d.ConnectReceiver(idx, &shim{tr, spanReceiver, recv})
		if rr, ok := strat.(*core.RRStrategy); ok {
			d.ConnectSender(idx, &rrSenderShim{shim{tr, spanCoreSender, snd}, rr, wc})
		} else {
			d.ConnectSender(idx, &shim{tr, spanTCPSender, snd})
		}
		if err := snd.Start(spec.StartAt); err != nil {
			return nil, fmt.Errorf("flow %d: %w", idx, err)
		}
		flows = append(flows, &workload.Flow{Spec: spec, Sender: snd, Receiver: recv, Trace: ft})
	}
	return flows, nil
}

// suiteTimes accumulates, over the experiments of one suite round, what
// the traced run reports for the sweep and experiments layers.
type suiteTimes struct {
	perExperiment map[string]time.Duration
	render        time.Duration
	// Filled by timedExperiment, i.e. in traced rounds only.
	jobs, reduce, sweepRun time.Duration
	// workerTime is the sum over sweeps of run time x workers used.
	workerTime time.Duration
	jobTimes   []time.Duration
	jobsFailed int
}

func newSuiteTimes() *suiteTimes { return &suiteTimes{perExperiment: map[string]time.Duration{}} }

// timedExperiment wraps an experiment so that Jobs, every job function,
// the sweep between Jobs and Reduce, and Reduce are timed from outside.
type timedExperiment struct {
	experiments.Experiment
	tr      *tracer
	st      *suiteTimes
	workers int

	sweepSpan  int32
	sweepStart time.Time
	// slots are written by the sweep's worker goroutines, one job each,
	// and read after sweep.Run has returned.
	slots []jobSlot
}

type jobSlot struct {
	start, end int64
	failed     bool
}

func (t *timedExperiment) Jobs() ([]sweep.Job, error) {
	start := time.Now()
	s := t.tr.begin(spanJobs)
	jobs, err := t.Experiment.Jobs()
	t.tr.end(s)
	t.st.jobs += time.Since(start)
	if err != nil {
		return nil, err
	}
	t.slots = make([]jobSlot, len(jobs))
	for i := range jobs {
		run, slot := jobs[i].Run, &t.slots[i]
		jobs[i].Run = func(seed int64) (any, error) {
			slot.start = t.tr.now()
			v, err := run(seed)
			slot.end = t.tr.now()
			slot.failed = err != nil
			return v, err
		}
	}
	t.sweepSpan = t.tr.begin(spanSweep)
	t.sweepStart = time.Now()
	return jobs, nil
}

func (t *timedExperiment) Reduce(results []any) (experiments.Renderable, error) {
	run := time.Since(t.sweepStart)
	t.st.sweepRun += run
	t.st.workerTime += run * time.Duration(max(1, min(t.workers, len(t.slots))))
	for i, slot := range t.slots {
		t.tr.add(spanJob, slot.start, slot.end)
		t.st.jobTimes = append(t.st.jobTimes, time.Duration(slot.end-slot.start))
		if _, degraded := results[i].(sweep.Degraded); slot.failed || degraded {
			t.st.jobsFailed++
		}
	}
	t.tr.end(t.sweepSpan)

	start := time.Now()
	s := t.tr.begin(spanReduce)
	res, err := t.Experiment.Reduce(results)
	t.tr.end(s)
	t.st.reduce += time.Since(start)
	return res, err
}

// ---- reducing traced rounds to per-layer metrics ---------------------------

// layerReport collects one sample of each per-layer metric per traced
// cycle; the reported value is the median over cycles.
type layerReport struct {
	samples map[string][]float64
	cycles  int
}

func (lr *layerReport) add(name string, v float64) {
	lr.samples[name] = append(lr.samples[name], v)
}

// tracedRound is one round of a traced cycle with its reduced spans.
type tracedRound struct {
	*roundResult
	spans roundSpans
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// step is one round of a traced cycle. sameModel steps simulate exactly
// what the measured configuration does and must reproduce its digest.
type step struct {
	key       string
	v         variant
	sameModel bool
}

func (w *world) layers(tr *tracer, budget time.Duration, chk *checker, keepSpans bool) *layerReport {
	steps := []step{{"plain", variant{}, true}, {"shim", variant{shim: true}, true}}
	traces := false
	for _, s := range w.specs {
		traces = traces || !s.NoTrace
	}
	switch {
	case w.bus == fullBus:
		steps = append(steps,
			step{"nullBus", variant{bus: nullBus}, false},
			step{"noBus", variant{bus: noBus}, false})
	case traces:
		steps = append(steps,
			step{"plainNoTrace", variant{noTrace: true}, true},
			step{"shimNoTrace", variant{shim: true, noTrace: true}, true})
	}
	lr := &layerReport{samples: map[string][]float64{}}
	for begin := time.Now(); lr.cycles == 0 || time.Since(begin) < budget; lr.cycles++ {
		got := map[string]tracedRound{}
		for _, st := range steps {
			from := tr.startRound()
			r := w.run(st.v, tr)
			got[st.key] = tracedRound{r, tr.finishRound(from, keepSpans && lr.cycles == 0)}
			if st.sameModel || r.fail != "" {
				chk.check(st.key+" round", r)
			}
		}
		w.reduce(got, lr, traces)
	}
	return lr
}

func (w *world) reduce(got map[string]tracedRound, lr *layerReport, traces bool) {
	plain, shimmed := got["plain"], got["shim"]
	events, wc := float64(plain.events), plain.world
	sp := &shimmed.spans

	lr.add("sim.events", events)
	lr.add("sim.heap_highwater", float64(wc.heapHighWater))
	lr.add("sim.run_ms", ms(plain.run))
	lr.add("sim.events_per_s", events/plain.run.Seconds())
	lr.add("netem.pkts", float64(plain.pkts))
	lr.add("netem.pkts_per_s", float64(plain.pkts)/plain.run.Seconds())
	lr.add("netem.fwd_drop_ratio", ratio(float64(wc.drops), float64(wc.drops+wc.enqueued)))
	lr.add("netem.pool_hit_ratio", ratio(float64(wc.poolHits), float64(wc.poolGets)))
	lr.add("netem.build_ms", ms(plain.build))
	lr.add("workload.install_ms", ms(plain.install))
	lr.add("workload.install_us_per_flow", ms(plain.install)*1e3/float64(len(w.specs)))

	lr.add("netem.entry_self_ns_per_pkt", sp.perCall(spanFwdEntry, spanRevEntry))
	lr.add("netem.port_self_ns_per_pkt", sp.perCall(spanDataPort, spanAckPort))
	lr.add("tcp.sender_self_ns_per_ack", sp.perCall(spanTCPSender))
	lr.add("tcp.receiver_self_ns_per_pkt", sp.perCall(spanReceiver))
	lr.add("tcp.acks", sp.count(spanTCPSender))
	lr.add("tcp.data_pkts", sp.count(spanReceiver))
	lr.add("tcp.rtx_ratio", ratio(float64(wc.retransmits), sp.count(spanDataPort)))
	lr.add("tcp.timeouts", float64(wc.timeouts))
	lr.add("core.sender_self_ns_per_ack", sp.perCall(spanCoreSender))
	lr.add("core.recovery_ack_share", ratio(float64(shimmed.world.recoveryAcks), sp.count(spanCoreSender)))
	lr.add("sim.residual_ns_per_event", residualNs(shimmed)/events)
	lr.add("tracing_overhead", ratio(float64(shimmed.wall), float64(plain.wall)))

	if w.bus == fullBus {
		lr.add("telemetry.events", float64(wc.telemetryEvents))
		lr.add("telemetry.events_per_sim_event", float64(wc.telemetryEvents)/events)
		lr.add("telemetry.ndjson_bytes", float64(wc.ndjsonBytes))
		lr.add("telemetry.emit_ns_ndjson", sp.perCall(spanSinkNDJSON))
		lr.add("telemetry.emit_ns_flowtable", sp.perCall(spanSinkFlowTable))
		lr.add("telemetry.emit_ns_span", sp.perCall(spanSinkSpan))
		null, none := got["nullBus"], got["noBus"]
		lr.add("telemetry.nullsink_ns_per_event", float64(null.run-none.run)/float64(none.events))
		return
	}

	// The cost budget: every row measured, none modelled. With FlowTrace
	// attached the endpoint rows come from the NoTrace pair of rounds
	// and the trace row is the measured difference, so rows do not
	// overlap.
	base, traceNs := shimmed, 0.0
	if traces {
		noTrace := got["plainNoTrace"]
		traceNs = float64(plain.run-noTrace.run) / events
		lr.add("trace.ns_per_event", traceNs)
		base = got["shimNoTrace"]
	}
	bs := &base.spans
	rows := map[string]float64{
		"sim":      residualNs(base) / events,
		"netem":    (float64(plain.build) + bs.selfNs(spanFwdEntry, spanRevEntry, spanDataPort, spanAckPort)) / events,
		"tcp":      bs.selfNs(spanTCPSender, spanReceiver) / events,
		"core":     bs.selfNs(spanCoreSender) / events,
		"trace":    traceNs,
		"workload": float64(plain.install) / events,
	}
	for row, v := range rows {
		lr.add("budget."+row+"_ns_per_event", v)
	}
	lr.add("budget.total_ns_per_event", float64(plain.wall)/events)
}

// budgetRows is the cost budget's row order. Each is the median of its
// measurements; "unattributed" is what they leave of the total.
var budgetRows = []string{"sim", "netem", "tcp", "core", "trace", "workload"}

// residualNs is the part of a shimmed round's Run spent outside every
// shim, net of the tracer's own cost: the scheduler plus the links'
// internal timers.
func residualNs(r tracedRound) float64 {
	return float64(r.run) - r.spans.attributedNs() - r.spans.overheadNs()
}

func (s *suite) layers(tr *tracer, budget time.Duration, chk *checker, keepSpans bool) *layerReport {
	lr := &layerReport{samples: map[string][]float64{}}
	for begin := time.Now(); lr.cycles == 0 || time.Since(begin) < budget; lr.cycles++ {
		keep := keepSpans && lr.cycles == 0
		plain := s.run(s.parallel, nil)
		chk.check("plain round", plain)
		from := tr.startRound()
		traced := s.run(s.parallel, tr)
		tr.finishRound(from, keep)
		chk.check("traced round", traced)
		s.reduce(plain, traced, lr)

		// One worker against W: the sweep's speed-up, and the digest
		// must not depend on the worker count.
		if s.checkParallel == 0 {
			continue
		}
		speedup := 1.0
		if s.checkParallel != s.parallel {
			from = tr.startRound()
			one := s.run(s.checkParallel, tr)
			tr.finishRound(from, keep)
			chk.check("one-worker round", one)
			speedup = ratio(float64(one.suite.sweepRun), float64(traced.suite.sweepRun))
		}
		lr.add("sweep.speedup", speedup)
	}
	return lr
}

func (s *suite) reduce(plain, traced *roundResult, lr *layerReport) {
	st := traced.suite
	lr.add("sim.events", float64(plain.events))
	lr.add("sim.events_per_s", float64(plain.events)/plain.wall.Seconds())
	lr.add("netem.pkts", float64(plain.pkts))
	lr.add("netem.pkts_per_s", float64(plain.pkts)/plain.wall.Seconds())
	lr.add("tracing_overhead", ratio(float64(traced.wall), float64(plain.wall)))

	times := append([]time.Duration(nil), st.jobTimes...)
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	var busy time.Duration
	for _, d := range times {
		busy += d
	}
	lr.add("sweep.jobs", float64(len(times)))
	lr.add("sweep.jobs_failed", float64(st.jobsFailed))
	lr.add("sweep.run_ms", ms(st.sweepRun))
	lr.add("sweep.job_busy_ms", ms(busy))
	if len(times) > 0 {
		lr.add("sweep.job_ms_p50", ms(times[len(times)/2]))
		lr.add("sweep.job_ms_max", ms(times[len(times)-1]))
	}
	lr.add("sweep.overhead_ratio", 1-ratio(float64(busy), float64(st.workerTime)))
	lr.add("experiments.jobs_ms", ms(st.jobs))
	lr.add("experiments.reduce_ms", ms(st.reduce))
	lr.add("experiments.render_ms", ms(st.render))
	if len(s.items) > 1 {
		for name, d := range st.perExperiment {
			lr.add("experiments.ms_"+name, ms(d))
		}
	}
}

// runTraced measures one workload's per-layer metrics: the traced
// cycles of the workload itself, then the isolated drivers.
func runTraced(w *workloadDef, cfg runConfig, keepSpans bool) (*workloadResult, []spanRecord) {
	res := &workloadResult{Name: w.name, Workers: w.workers, Metrics: map[string]metric{}}
	chk := newChecker(res, cfg.pinned)
	tr := newTracer(sampleEvery, calibrate())
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.scale.smoke {
		budget = 0
	}
	lr := w.prepare(cfg.seed, cfg.scale).layers(tr, budget, chk, keepSpans)
	res.Rounds = lr.cycles

	// Every declared per-layer metric is reported by every workload; one
	// the workload does not exercise reads 0.
	for name := range layerMoves {
		res.Metrics[name] = single(0)
	}
	for name, xs := range lr.samples {
		res.Metrics[name] = summarize(xs)
	}
	for name, v := range isolatedDrivers(cfg.seed, cfg.scale) {
		res.Metrics[name] = v
	}
	if total := res.Metrics["budget.total_ns_per_event"].Value; total > 0 {
		left := total
		for _, row := range budgetRows {
			v := res.Metrics["budget."+row+"_ns_per_event"].Value
			res.Budget = append(res.Budget, budgetRow{row, v, v / total})
			left -= v
		}
		res.Metrics["budget.unattributed_ns_per_event"] = single(left)
		res.Budget = append(res.Budget, budgetRow{"unattributed", left, left / total}, budgetRow{"total", total, 1})
	}
	return res, tr.records(w.name)
}
