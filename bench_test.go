package rrtcp_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (DESIGN.md §4). Each benchmark runs the full
// experiment per iteration and reports domain metrics (goodput,
// transfer delay, timeouts) alongside the usual ns/op, so
// `go test -bench=. -benchmem` doubles as the reproduction driver:
//
//	BenchmarkFigure5Drop3 / Drop6 / Drop8   — Figure 5 (+ robustness sweep)
//	BenchmarkFigure6NewReno / SACK / RR     — Figure 6 panels
//	BenchmarkFigure7                        — Figure 7 sweep (reduced)
//	BenchmarkTable5Case1..4                 — Table 5 fairness matrix
//	BenchmarkAckLoss                        — §2.3 ACK-loss robustness
//	BenchmarkAblation                       — RR design-choice ablations
//
// Microbenchmarks at the bottom cover the substrate hot paths.

import (
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rrtcp"
	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
)

// --- Figure 5: drop-tail burst-loss throughput ---

func benchFigure5(b *testing.B, drops int) {
	b.Helper()
	var rrGoodput, sackGoodput, newrenoGoodput float64
	for i := 0; i < b.N; i++ {
		res, err := rrtcp.RunFigure5(rrtcp.Figure5Config{Drops: drops})
		if err != nil {
			b.Fatal(err)
		}
		rr, _ := res.Row(rrtcp.RR)
		sack, _ := res.Row(rrtcp.SACK)
		nr, _ := res.Row(rrtcp.NewReno)
		rrGoodput = rr.GoodputBps
		sackGoodput = sack.GoodputBps
		newrenoGoodput = nr.GoodputBps
	}
	b.ReportMetric(rrGoodput/1000, "rr-Kbps")
	b.ReportMetric(sackGoodput/1000, "sack-Kbps")
	b.ReportMetric(newrenoGoodput/1000, "newreno-Kbps")
}

func BenchmarkFigure5Drop3(b *testing.B) { benchFigure5(b, 3) }
func BenchmarkFigure5Drop6(b *testing.B) { benchFigure5(b, 6) }
func BenchmarkFigure5Drop8(b *testing.B) { benchFigure5(b, 8) }

// --- telemetry overhead ---
//
// The three benchmarks below quantify what the observability layer
// costs a Figure 5 run: nothing attached (the shipping default, one nil
// check per event site), a bus draining into the NDJSON encoder, and a
// bus retaining events in memory.

func benchFigure5Telemetry(b *testing.B, mkBus func() *rrtcp.TelemetryBus) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := rrtcp.RunFigure5(rrtcp.Figure5Config{Drops: 3, Telemetry: mkBus()})
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.Row(rrtcp.RR); !ok || !row.Finished {
			b.Fatal("rr did not finish")
		}
	}
}

func BenchmarkFigure5NullSink(b *testing.B) {
	benchFigure5Telemetry(b, func() *rrtcp.TelemetryBus { return nil })
}

func BenchmarkFigure5NDJSONSink(b *testing.B) {
	benchFigure5Telemetry(b, func() *rrtcp.TelemetryBus {
		return rrtcp.NewTelemetryBus(rrtcp.NewNDJSONSink(io.Discard))
	})
}

func BenchmarkFigure5RingSink(b *testing.B) {
	benchFigure5Telemetry(b, func() *rrtcp.TelemetryBus {
		return rrtcp.NewTelemetryBus(rrtcp.NewTelemetryRing(4096))
	})
}

func BenchmarkFigure5FlowTableSink(b *testing.B) {
	benchFigure5Telemetry(b, func() *rrtcp.TelemetryBus {
		return rrtcp.NewTelemetryBus(rrtcp.NewFlowTable(rrtcp.FlowStatsConfig{Exemplars: 2}))
	})
}

func BenchmarkNDJSONEmit(b *testing.B) {
	sink := rrtcp.NewNDJSONSink(io.Discard)
	ev := rrtcp.TelemetryEvent{
		At:   time.Second,
		Comp: telemetry.CompRR,
		Kind: telemetry.KRecoveryEnter,
		Flow: 0, Seq: 60000, A: 13.6, B: 6.5,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A new instant every event: the worst case for the encoder,
		// which reuses the timestamp bytes while events share one.
		ev.At += 1337 * time.Nanosecond
		sink.Emit(ev)
	}
}

// --- Figure 6: RED gateway panels ---

func benchFigure6(b *testing.B, kind rrtcp.Kind) {
	b.Helper()
	var flow0, aggregate float64
	for i := 0; i < b.N; i++ {
		res, err := rrtcp.RunFigure6(rrtcp.Figure6Config{
			Variants: []rrtcp.Kind{kind},
			Seeds:    []int64{42, 43, 44},
		})
		if err != nil {
			b.Fatal(err)
		}
		p, _ := res.Panel(kind)
		flow0 = p.Flow0GoodputBps
		aggregate = p.AggregateGoodputBps
	}
	b.ReportMetric(flow0/1000, "flow1-Kbps")
	b.ReportMetric(aggregate/1000, "aggregate-Kbps")
}

func BenchmarkFigure6NewReno(b *testing.B) { benchFigure6(b, rrtcp.NewReno) }
func BenchmarkFigure6SACK(b *testing.B)    { benchFigure6(b, rrtcp.SACK) }
func BenchmarkFigure6RR(b *testing.B)      { benchFigure6(b, rrtcp.RR) }

// --- Figure 7: square-root-model fitness ---

func BenchmarkFigure7(b *testing.B) {
	var rrFit, sackFit float64
	for i := 0; i < b.N; i++ {
		res, err := rrtcp.RunFigure7(rrtcp.Figure7Config{
			LossRates: []float64{0.005, 0.05},
			Duration:  30 * time.Second,
			Seeds:     []int64{1},
		})
		if err != nil {
			b.Fatal(err)
		}
		rr, _ := res.Point(rrtcp.RR, 0.005)
		sack, _ := res.Point(rrtcp.SACK, 0.005)
		rrFit = rr.Window / rr.ModelWindow
		sackFit = sack.Window / sack.ModelWindow
	}
	b.ReportMetric(rrFit, "rr-window/model")
	b.ReportMetric(sackFit, "sack-window/model")
}

// --- Table 5: fairness matrix ---

func benchTable5(b *testing.B, bg, target rrtcp.Kind) {
	b.Helper()
	var delay, lossRate float64
	for i := 0; i < b.N; i++ {
		res, err := rrtcp.RunTable5(rrtcp.Table5Config{
			Seeds: []int64{1, 2, 3},
			Cases: []rrtcp.Table5Case{{Label: "bench", Background: bg, Target: target}},
		})
		if err != nil {
			b.Fatal(err)
		}
		delay = res.Rows[0].TransferDelay.Seconds()
		lossRate = res.Rows[0].LossRate
	}
	b.ReportMetric(delay, "transfer-s")
	b.ReportMetric(lossRate*100, "loss-%")
}

func BenchmarkTable5Case1RenoOverReno(b *testing.B) { benchTable5(b, rrtcp.Reno, rrtcp.Reno) }
func BenchmarkTable5Case2RenoOverRR(b *testing.B)   { benchTable5(b, rrtcp.RR, rrtcp.Reno) }
func BenchmarkTable5Case3RROverRR(b *testing.B)     { benchTable5(b, rrtcp.RR, rrtcp.RR) }
func BenchmarkTable5Case4RROverReno(b *testing.B)   { benchTable5(b, rrtcp.Reno, rrtcp.RR) }

// --- §2.3 ACK-loss robustness ---

func BenchmarkAckLoss(b *testing.B) {
	var rrDelay float64
	for i := 0; i < b.N; i++ {
		res, err := rrtcp.RunAckLoss(rrtcp.AckLossConfig{
			AckLossRates: []float64{0.1},
			Variants:     []rrtcp.Kind{rrtcp.NewReno, rrtcp.RR},
			Seeds:        []int64{1, 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range res.Points {
			if pt.Variant == rrtcp.RR {
				rrDelay = pt.MeanDelay.Seconds()
			}
		}
	}
	b.ReportMetric(rrDelay, "rr-delay-s")
}

// --- RR design ablations ---

func BenchmarkAblation(b *testing.B) {
	var published, noDetect float64
	for i := 0; i < b.N; i++ {
		res, err := rrtcp.RunAblation(3)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			switch row.Variant.Label {
			case "rr (published)":
				published = row.TransferDelay.Seconds()
			case "no further-loss detection":
				noDetect = row.TransferDelay.Seconds()
			}
		}
	}
	b.ReportMetric(published, "published-s")
	b.ReportMetric(noDetect, "no-detect-s")
}

// --- substrate microbenchmarks ---

func BenchmarkSchedulerEventChurn(b *testing.B) {
	s := sim.NewScheduler(1)
	b.ReportAllocs()
	var tick *sim.Timer
	remaining := b.N
	tick = s.NewTimer(func() {
		if remaining == 0 {
			return
		}
		remaining--
		tick.Reset(time.Microsecond)
	})
	tick.Reset(time.Microsecond)
	b.ResetTimer()
	s.RunAll()
}

func BenchmarkREDEnqueueDequeue(b *testing.B) {
	q := netem.Must(netem.NewRED(netem.PaperREDConfig(), rand.New(rand.NewSource(1))))
	p := &netem.Packet{Kind: netem.Data, Size: 1000, Len: 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p, time.Duration(i)*time.Millisecond)
		q.Dequeue()
	}
}

func BenchmarkDropTailEnqueueDequeue(b *testing.B) {
	q := netem.Must(netem.NewDropTail(64))
	p := &netem.Packet{Kind: netem.Data, Size: 1000, Len: 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p, 0)
		q.Dequeue()
	}
}

func BenchmarkReceiverInOrder(b *testing.B) {
	sched := sim.NewScheduler(1)
	sink := netem.NodeFunc(func(*netem.Packet) {})
	r := tcp.NewReceiver(sched, 0, sink, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Receive(&netem.Packet{Flow: 0, Kind: netem.Data, Seq: int64(i) * 1000, Len: 1000, Size: 1000})
	}
}

func BenchmarkEndToEndSimulationThroughput(b *testing.B) {
	// Measures simulator speed: simulated packet deliveries per second
	// of wall time for a 10-flow RED scenario.
	for i := 0; i < b.N; i++ {
		sched := rrtcp.NewScheduler(1)
		cfg := rrtcp.PaperDropTailConfig(10)
		cfg.ForwardQueue = rrtcp.Must(rrtcp.NewREDQueue(sched, rrtcp.PaperREDConfig()))
		d, err := rrtcp.NewDumbbell(sched, cfg)
		if err != nil {
			b.Fatal(err)
		}
		specs := make([]rrtcp.FlowSpec, 10)
		for j := range specs {
			specs[j] = rrtcp.FlowSpec{Kind: rrtcp.RR, Bytes: rrtcp.Infinite, Window: 30}
		}
		if _, err := rrtcp.InstallFlows(sched, d, specs); err != nil {
			b.Fatal(err)
		}
		sched.Run(6 * time.Second)
	}
}

// --- headline simulator-speed benchmarks ---
//
// BenchmarkEventsPerSec and BenchmarkPacketsPerSec are the repo's
// committed performance trajectory (BENCH_core.json): scheduler events
// and simulated packet transmissions per wall second on the standard
// 10-flow RED dumbbell, plus heap allocations per event. Beside them,
// BenchmarkLinkDeepPipe, BenchmarkLinkSparse and
// BenchmarkLaneUnderParkedTimers pin the properties of the event queue
// that world is too small to show.
// tools/benchdiff compares these numbers across PRs; see
// docs/OBSERVABILITY.md.

// headlineWorld builds the standard measurement scenario: ten flows of
// one variant (RR in every benchmark) on the paper's dumbbell behind a
// RED gateway.
func headlineWorld(tb testing.TB, kind rrtcp.Kind) (*rrtcp.Scheduler, *rrtcp.Dumbbell, []*rrtcp.Flow) {
	tb.Helper()
	sched := rrtcp.NewScheduler(1)
	cfg := rrtcp.PaperDropTailConfig(10)
	cfg.ForwardQueue = rrtcp.Must(rrtcp.NewREDQueue(sched, rrtcp.PaperREDConfig()))
	d, err := rrtcp.NewDumbbell(sched, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	specs := make([]rrtcp.FlowSpec, 10)
	for j := range specs {
		specs[j] = rrtcp.FlowSpec{Kind: kind, Bytes: rrtcp.Infinite, Window: 30}
	}
	flows, err := rrtcp.InstallFlows(sched, d, specs)
	if err != nil {
		tb.Fatal(err)
	}
	return sched, d, flows
}

// runHeadlineWorld builds and runs the standard measurement scenario,
// returning the scheduler (for its counters) and the topology (for its
// packet pool).
func runHeadlineWorld(b *testing.B) (*rrtcp.Scheduler, *rrtcp.Dumbbell) {
	b.Helper()
	sched, d, _ := headlineWorld(b, rrtcp.RR)
	sched.Run(6 * time.Second)
	return sched, d
}

// A default-installed flow keeps no samples: the headline world
// allocates what building it takes however long it runs.
func TestDefaultFlowKeepsNoSamples(t *testing.T) {
	const horizon = 120 * time.Second
	run := func() {
		sched, _, _ := headlineWorld(t, rrtcp.RR)
		sched.Run(horizon)
	}
	run() // warm the process-wide pools of the first run
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	// The world itself is ~60 kB; the same run with every flow recorded
	// allocates ~10 MB of samples.
	if got := after.TotalAlloc - before.TotalAlloc; got > 128<<10 {
		t.Fatalf("a %v run of the headline world allocated %d bytes, want under 128 KiB: a default flow is keeping per-event state", horizon, got)
	}
}

// A flow is counted by its sender: for every variant on the headline
// world, the sender's counts equal what a recorded log of the same run
// holds, and recording the log moves none of them.
func TestSenderCountsMatchRecordedLog(t *testing.T) {
	type counts struct {
		rtx, timeouts, acks uint32
		una                 int64
		lossRate            float64
	}
	of := func(s *rrtcp.Sender) counts {
		return counts{s.Retransmits(), s.Timeouts(), s.Acks(), s.SndUna(), s.LossRate()}
	}
	run := func(kind rrtcp.Kind, record bool) []*rrtcp.Flow {
		sched, _, flows := headlineWorld(t, kind)
		for _, f := range flows {
			if record {
				f.Trace.Record()
			}
		}
		sched.Run(20 * time.Second)
		return flows
	}
	for _, kind := range rrtcp.Kinds() {
		plain := run(kind, false)
		for i, f := range run(kind, true) {
			var log counts
			var sent uint32
			for _, ev := range f.Trace.Samples() {
				switch ev.Kind {
				case telemetry.KSend:
					sent++
				case telemetry.KRetransmit:
					log.rtx++
				case telemetry.KTimeout:
					log.timeouts++
				case telemetry.KAck:
					log.acks++
					log.una = max(log.una, ev.Seq)
				}
			}
			if log.acks == 0 {
				t.Fatalf("%s flow %d: the recorded log holds no ACK", kind, i)
			}
			log.lossRate = float64(log.rtx) / float64(sent+log.rtx)
			if got := of(f.Sender); got != log {
				t.Fatalf("%s flow %d: sender %+v, recorded log %+v", kind, i, got, log)
			}
			if got := of(plain[i].Sender); got != log {
				t.Fatalf("%s flow %d: sender %+v without a sample log, %+v with one", kind, i, got, log)
			}
		}
	}
}

// reportHeadlineWorkingSet publishes the engine working-set metrics the
// performance trajectory tracks alongside throughput: the deepest the
// pending-event heap got, and the packet pool's recycling hit rate
// (fraction of Gets served without allocating).
func reportHeadlineWorkingSet(b *testing.B, heapHighWater int, poolGets, poolHits uint64) {
	b.Helper()
	b.ReportMetric(float64(heapHighWater), "heap-highwater")
	if poolGets > 0 {
		b.ReportMetric(float64(poolHits)/float64(poolGets), "pool-hit-ratio")
	}
}

func BenchmarkEventsPerSec(b *testing.B) {
	var events, poolGets, poolHits uint64
	highWater := 0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, d := runHeadlineWorld(b)
		events += sched.Processed()
		if hw := sched.HeapHighWater(); hw > highWater {
			highWater = hw
		}
		poolGets += d.Pool().Gets
		poolHits += d.Pool().Hits
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
	if events > 0 {
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(events), "allocs/event")
	}
	reportHeadlineWorkingSet(b, highWater, poolGets, poolHits)
}

func BenchmarkPacketsPerSec(b *testing.B) {
	var poolGets, poolHits uint64
	highWater := 0
	_, before := rrtcp.SimCounters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, d := runHeadlineWorld(b)
		if hw := sched.HeapHighWater(); hw > highWater {
			highWater = hw
		}
		poolGets += d.Pool().Gets
		poolHits += d.Pool().Hits
	}
	b.StopTimer()
	_, after := rrtcp.SimCounters()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(after-before)/secs, "packets/sec")
	}
	reportHeadlineWorkingSet(b, highWater, poolGets, poolHits)
}

// BenchmarkLinkDeepPipe is the long-fat-pipe case of the headline set:
// one link kept full with 1000 packets propagating at once (1 us of
// serialization against 1 ms of propagation), each delivery feeding its
// packet straight back in. One op is one packet: a serialization
// completion plus a delivery. The wire is one lane, so heap-highwater
// stays at 2 and the cost per packet does not grow with the pipe.
func BenchmarkLinkDeepPipe(b *testing.B) {
	sched := sim.NewScheduler(1)
	var pool netem.PacketPool
	var link *netem.Link
	delivered := 0
	loop := netem.NodeFunc(func(p *netem.Packet) {
		if delivered++; delivered == b.N {
			sched.Stop()
		}
		link.Receive(p)
	})
	link = netem.Must(netem.NewLink(sched, 8e9, time.Millisecond, nil, loop))
	for i := 0; i < 1000; i++ {
		p := pool.Get()
		p.Kind, p.Size, p.Len = netem.Data, 1000, 1000
		link.Receive(p)
	}
	sched.Run(2 * time.Millisecond) // fill the wire, grow the rings
	delivered = 0
	b.ReportAllocs()
	b.ResetTimer()
	sched.RunAll()
	b.StopTimer()
	b.ReportMetric(float64(sched.HeapHighWater()), "heap-highwater")
}

// BenchmarkLinkSparse is the other end from the deep pipe: one link
// offered a packet every 2 us that serializes in 1 us, so every
// serialization completion finds the queue empty. One op is one packet:
// the timer event that offers it, its delivery, and its completion,
// which the link reserves and settles on the next arrival rather than
// dispatching it.
func BenchmarkLinkSparse(b *testing.B) {
	sched := sim.NewScheduler(1)
	var pool netem.PacketPool
	link := netem.Must(netem.NewLink(sched, 8e9, 10*time.Microsecond, nil,
		netem.NodeFunc(func(p *netem.Packet) { p.Release() })))
	sent, packets := 0, 1000 // a warm-up round first: grow the rings and the pool
	var feed *sim.Timer
	feed = sched.NewTimer(func() {
		p := pool.Get()
		p.Kind, p.Size, p.Len = netem.Data, 1000, 1000
		link.Receive(p)
		if sent++; sent < packets {
			feed.Reset(2 * time.Microsecond)
		}
	})
	feed.Reset(0)
	sched.RunAll()
	sent, packets = 0, b.N
	feed.Reset(0)
	b.ReportAllocs()
	b.ResetTimer()
	sched.RunAll()
	b.StopTimer()
	b.ReportMetric(float64(sched.HeapHighWater()), "heap-highwater")
}

// BenchmarkLaneUnderParkedTimers fires lane events — 32 lanes, each
// pushing its next event as it fires, the shape of 32 busy links — while
// N far-future timers sit armed, as every flow's retransmission timer
// does. One op is one lane event; ns/op must be flat in N, because only
// the timers are in a heap: the lane heads sit in a flat array of their
// own (32 here, four times what a dumbbell has).
func BenchmarkLaneUnderParkedTimers(b *testing.B) {
	for _, c := range []struct {
		name   string
		parked int
	}{{"0", 0}, {"2k", 2000}, {"100k", 100000}} {
		b.Run(c.name, func(b *testing.B) {
			sched := sim.NewScheduler(1)
			for i := 0; i < c.parked; i++ {
				sched.NewTimer(func() {}).Reset(time.Hour + time.Duration(i))
			}
			var lanes [32]sim.Lane[int]
			fired := 0
			for i := range lanes {
				l := &lanes[i]
				l.Init(sched, func(v int) {
					if fired++; fired == b.N {
						sched.Stop()
					}
					l.Push(time.Duration(1+v)*time.Microsecond, v)
				})
				l.Push(time.Duration(i), i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			sched.Run(time.Hour - 1)
		})
	}
}

// --- live-introspection overhead ---
//
// The pair below prices the -http introspection server against the
// acceptance bar (<5% overhead): the identical parallel chaos sweep
// with no observers, and with the full live stack — metrics sink,
// progress state, HTTP server, and a client scraping /metrics and
// /progress every 50ms throughout the run. 50ms is already ~300x
// more aggressive than a default Prometheus scrape interval; anything
// tighter measures the scraper's own CPU appetite on small machines,
// not the cost of having introspection enabled.

func runBenchChaos(b *testing.B, runOpt rrtcp.ExperimentRunOptions) {
	b.Helper()
	e, err := rrtcp.BuildExperiment("chaos", rrtcp.ExperimentOptions{
		Runs:     6,
		Seed:     7,
		Variants: []rrtcp.Kind{rrtcp.NewReno, rrtcp.RR},
		Bytes:    60 * 1000,
		Horizon:  20 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rrtcp.RunExperiment(e, runOpt); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkChaosParallel4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runBenchChaos(b, rrtcp.ExperimentRunOptions{Parallel: 4})
	}
}

func BenchmarkChaosParallel4LiveHTTP(b *testing.B) {
	sink := rrtcp.NewMetricsSink()
	ps := rrtcp.NewProgressState()
	srv := rrtcp.NewObsServer(sink.R, ps, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			for _, path := range []string{"/metrics", "/progress"} {
				resp, err := http.Get("http://" + addr + path)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	bus := rrtcp.NewTelemetryBus(sink, ps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBenchChaos(b, rrtcp.ExperimentRunOptions{Parallel: 4, Progress: bus})
	}
	b.StopTimer()
	stop.Store(true)
	<-done
}

// --- §2.3 fair-share gateways ---

func BenchmarkFairShare(b *testing.B) {
	var fifoLoss, drrLoss float64
	for i := 0; i < b.N; i++ {
		res, err := rrtcp.RunFairShare(rrtcp.FairShareConfig{})
		if err != nil {
			b.Fatal(err)
		}
		fifo, _ := res.Row("fifo")
		drr, _ := res.Row("drr")
		fifoLoss = fifo.AckLossRate
		drrLoss = drr.AckLossRate
	}
	b.ReportMetric(fifoLoss*100, "fifo-ackloss-%")
	b.ReportMetric(drrLoss*100, "drr-ackloss-%")
}

// --- two-way traffic extension ---

func BenchmarkTwoWay(b *testing.B) {
	var rrDelay, newrenoDelay float64
	for i := 0; i < b.N; i++ {
		res, err := rrtcp.RunTwoWay(rrtcp.TwoWayConfig{Seeds: []int64{1, 2}})
		if err != nil {
			b.Fatal(err)
		}
		rr, _ := res.Row(rrtcp.RR)
		nr, _ := res.Row(rrtcp.NewReno)
		rrDelay = rr.MeanDelay.Seconds()
		newrenoDelay = nr.MeanDelay.Seconds()
	}
	b.ReportMetric(rrDelay, "rr-delay-s")
	b.ReportMetric(newrenoDelay, "newreno-delay-s")
}

// --- Smooth-start [21] ---

func BenchmarkSmoothStart(b *testing.B) {
	var classicDrops, smoothDrops float64
	for i := 0; i < b.N; i++ {
		res, err := rrtcp.RunSmoothStart(rrtcp.SmoothStartConfig{})
		if err != nil {
			b.Fatal(err)
		}
		classic, _ := res.Row(false)
		smooth, _ := res.Row(true)
		classicDrops = float64(classic.SlowStartDrops)
		smoothDrops = float64(smooth.SlowStartDrops)
	}
	b.ReportMetric(classicDrops, "classic-drops")
	b.ReportMetric(smoothDrops, "smooth-drops")
}

// --- delayed-ACK model fit (extension of Figure 7) ---

func BenchmarkFigure7DelayedAck(b *testing.B) {
	var fit float64
	for i := 0; i < b.N; i++ {
		res, err := rrtcp.RunFigure7(rrtcp.Figure7Config{
			LossRates:  []float64{0.005},
			Duration:   30 * time.Second,
			Seeds:      []int64{1},
			DelayedAck: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		pt, _ := res.Point(rrtcp.SACK, 0.005)
		fit = pt.Window / pt.ModelWindow
	}
	b.ReportMetric(fit, "window/model")
}

// --- more substrate microbenchmarks ---

func BenchmarkDRREnqueueDequeue(b *testing.B) {
	q := netem.Must(netem.NewDRR(1000, 64))
	pkts := [4]*netem.Packet{}
	for i := range pkts {
		pkts[i] = &netem.Packet{Flow: i, Kind: netem.Data, Size: 1000, Len: 1000}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(pkts[i%4], 0)
		q.Dequeue()
	}
}

func BenchmarkReceiverOutOfOrder(b *testing.B) {
	sched := sim.NewScheduler(1)
	sink := netem.NodeFunc(func(*netem.Packet) {})
	r := tcp.NewReceiver(sched, 0, sink, nil)
	r.SACKEnabled = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate a gap and its fill: exercises block merge + SACK
		// generation on every second packet.
		base := int64(i) * 2000
		r.Receive(&netem.Packet{Flow: 0, Kind: netem.Data, Seq: base + 1000, Len: 1000, Size: 1000})
		r.Receive(&netem.Packet{Flow: 0, Kind: netem.Data, Seq: base, Len: 1000, Size: 1000})
	}
}

// benchVariantTransfer measures one full burst-loss transfer per
// iteration for a given variant — the end-to-end cost of each recovery
// scheme's state machine.
func benchVariantTransfer(b *testing.B, kind rrtcp.Kind) {
	b.Helper()
	var delay float64
	for i := 0; i < b.N; i++ {
		sched := rrtcp.NewScheduler(1)
		loss := rrtcp.NewSeqLoss(sched)
		loss.Drop(0, 60*1000, 61*1000, 63*1000)
		cfg := rrtcp.PaperDropTailConfig(1)
		cfg.Loss = loss
		d, err := rrtcp.NewDumbbell(sched, cfg)
		if err != nil {
			b.Fatal(err)
		}
		flow, err := rrtcp.InstallFlow(sched, d, 0, rrtcp.FlowSpec{
			Kind:            kind,
			Bytes:           150 * 1000,
			Window:          18,
			InitialSSThresh: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		sched.Run(60 * time.Second)
		if dl, ok := flow.Sender.TransferDelay(); ok {
			delay = dl.Seconds()
		}
	}
	b.ReportMetric(delay, "transfer-s")
}

func BenchmarkVariantTahoe(b *testing.B)     { benchVariantTransfer(b, rrtcp.Tahoe) }
func BenchmarkVariantReno(b *testing.B)      { benchVariantTransfer(b, rrtcp.Reno) }
func BenchmarkVariantNewReno(b *testing.B)   { benchVariantTransfer(b, rrtcp.NewReno) }
func BenchmarkVariantSACK(b *testing.B)      { benchVariantTransfer(b, rrtcp.SACK) }
func BenchmarkVariantFACK(b *testing.B)      { benchVariantTransfer(b, rrtcp.FACK) }
func BenchmarkVariantRightEdge(b *testing.B) { benchVariantTransfer(b, rrtcp.RightEdge) }
func BenchmarkVariantLinKung(b *testing.B)   { benchVariantTransfer(b, rrtcp.LinKung) }
func BenchmarkVariantRR(b *testing.B)        { benchVariantTransfer(b, rrtcp.RR) }

// --- Gilbert-Elliott bursty loss ---

func BenchmarkBursty(b *testing.B) {
	var rr8, nr8 float64
	for i := 0; i < b.N; i++ {
		res, err := rrtcp.RunBursty(rrtcp.BurstyConfig{
			BurstLengths: []float64{8},
		})
		if err != nil {
			b.Fatal(err)
		}
		rr, _ := res.Point(rrtcp.RR, 8)
		nr, _ := res.Point(rrtcp.NewReno, 8)
		rr8 = rr.GoodputBps
		nr8 = nr.GoodputBps
	}
	b.ReportMetric(rr8/1000, "rr-Kbps")
	b.ReportMetric(nr8/1000, "newreno-Kbps")
}
