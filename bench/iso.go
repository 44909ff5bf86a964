package main

import (
	"io"
	"math/rand"
	"time"

	"rrtcp/internal/core"
	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/sweep"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/telemetry/flowstats"
	"rrtcp/internal/workload"
)

// isoRepeats is how often each isolated driver runs; the median is
// reported.
const isoRepeats = 3

// isolatedDrivers runs every layer alone against stub neighbours. The
// figures do not depend on the workload; every traced run reports them
// so that each workload's layer block is complete.
func isolatedDrivers(seed int64, sc scale) map[string]metric {
	work := 1.0
	repeats := isoRepeats
	if sc.smoke {
		work, repeats = 0.01, 1
	}
	n := func(full int) int { return max(1, int(float64(full)*work)) }
	out := map[string]metric{}
	measure := func(name string, f func() float64) {
		xs := make([]float64, repeats)
		for i := range xs {
			xs[i] = f()
		}
		out[name] = summarize(xs)
	}

	for _, d := range []struct {
		name  string
		depth int
	}{{"d32", 32}, {"d1k", 1000}, {"d100k", n(100000)}} {
		measure("sim.iso_ns_per_event_"+d.name, func() float64 { return isoTimers(seed, d.depth, n(1000000)) })
	}
	measure("netem.iso_link_ns_per_pkt_droptail", func() float64 {
		return isoLink(seed, n(400000), func(*sim.Scheduler) netem.QueueDiscipline { return netem.Must(netem.NewDropTail(8)) })
	})
	measure("netem.iso_link_ns_per_pkt_red", func() float64 {
		return isoLink(seed, n(400000), func(s *sim.Scheduler) netem.QueueDiscipline {
			return netem.Must(netem.NewRED(netem.PaperREDConfig(), s.Rand()))
		})
	})
	for _, v := range []struct {
		name string
		mk   func() tcp.Strategy
	}{
		{"tcp.iso_ack_ns_tahoe", func() tcp.Strategy { return tcp.NewTahoe() }},
		{"tcp.iso_ack_ns_reno", func() tcp.Strategy { return tcp.NewReno4BSD() }},
		{"tcp.iso_ack_ns_newreno", func() tcp.Strategy { return tcp.NewNewReno() }},
		{"tcp.iso_ack_ns_sack", func() tcp.Strategy { return tcp.NewSACK() }},
		{"tcp.iso_ack_ns_sack6675", func() tcp.Strategy { return tcp.NewSACKModern() }},
		{"tcp.iso_ack_ns_fack", func() tcp.Strategy { return tcp.NewFACK() }},
		{"tcp.iso_ack_ns_rightedge", func() tcp.Strategy { return tcp.NewRightEdge() }},
		{"tcp.iso_ack_ns_linkung", func() tcp.Strategy { return tcp.NewLinKung() }},
		{"core.iso_ack_ns_rr", func() tcp.Strategy { return core.NewRR() }},
	} {
		measure(v.name, func() float64 { return isoTransfer(seed, n(100), v.mk) })
	}

	stream := recordStream(seed, sc)
	for _, s := range []struct {
		name string
		mk   func() telemetry.Sink
	}{
		{"ndjson", func() telemetry.Sink { return telemetry.NewNDJSONSink(io.Discard) }},
		{"ring", func() telemetry.Sink { return telemetry.NewRing(4096) }},
		{"flowtable", func() telemetry.Sink { return flowstats.New(flowstats.Config{Exemplars: 2}) }},
		{"span", func() telemetry.Sink { return telemetry.NewSpanSink() }},
		{"series", func() telemetry.Sink { return telemetry.NewSeriesSink() }},
		{"metrics", func() telemetry.Sink { return telemetry.NewMetricsSink() }},
		{"bounded", func() telemetry.Sink {
			return telemetry.NewBoundedSink(telemetry.NullSink{}, telemetry.BoundedConfig{
				MaxEvents: uint64(len(stream) / 2), Policy: telemetry.SampleOneInK,
			})
		}},
	} {
		measure("telemetry.iso_emit_ns_"+s.name, func() float64 {
			sink := s.mk()
			start := time.Now()
			for _, ev := range stream {
				sink.Emit(ev)
			}
			return float64(time.Since(start)) / float64(len(stream))
		})
	}

	measure("sweep.iso_dispatch_ns_per_job_seq", func() float64 { return isoDispatch(n(100000), 1) })
	measure("sweep.iso_dispatch_ns_per_job_par", func() float64 { return isoDispatch(n(100000), sweepWorkers()) })
	return out
}

// isoTimers keeps depth self-re-arming timers pending (seeded periods,
// handlers that only re-arm) and returns wall ns per event fired.
func isoTimers(seed int64, depth, events int) float64 {
	sched := sim.NewScheduler(seed)
	rng := rand.New(rand.NewSource(seed))
	fired := 0
	for i := 0; i < depth; i++ {
		period := sim.Time(1+rng.Int63n(1000)) * time.Microsecond
		var t *sim.Timer
		t = sched.NewTimer(func() {
			if fired++; fired >= events {
				sched.Stop()
			}
			t.Reset(period)
		})
		t.Reset(sim.Time(rng.Int63n(int64(period))))
	}
	start := time.Now()
	sched.RunAll()
	return float64(time.Since(start)) / float64(sched.Processed())
}

// isoLink offers one link 1.2x its line rate from a zero-value packet
// pool, releases what it delivers, and returns wall ns per offered
// packet (the feeder's own timer event included).
func isoLink(seed int64, pkts int, disc func(*sim.Scheduler) netem.QueueDiscipline) float64 {
	const (
		bps  = 10e6
		size = 1000
	)
	sched := sim.NewScheduler(seed)
	var pool netem.PacketPool
	sink := netem.NodeFunc(func(p *netem.Packet) { p.Release() })
	link := netem.Must(netem.NewLink(sched, bps, 10*time.Millisecond, disc(sched), sink))
	gap := sim.Time(float64(link.TransmissionDelay(size)) / 1.2)
	sent := 0
	var feed *sim.Timer
	feed = sched.NewTimer(func() {
		p := pool.Get()
		p.Kind, p.Flow, p.Seq, p.Len, p.Size = netem.Data, 0, int64(sent)*size, size, size
		link.Receive(p)
		if sent++; sent < pkts {
			feed.Reset(gap)
		}
	})
	feed.Reset(0)
	start := time.Now()
	sched.RunAll()
	return float64(time.Since(start)) / float64(pkts)
}

// stubNet joins one sender and one receiver: a FIFO drained by a single
// timer, one packet per tick, losing every 50th data packet.
type stubNet struct {
	toReceiver, toSender netem.Node
	fifo                 []*netem.Packet
	head                 int
	drain                *sim.Timer
	data                 int
}

const stubTick = time.Millisecond

func (n *stubNet) Receive(p *netem.Packet) {
	n.fifo = append(n.fifo, p)
	if !n.drain.Armed() {
		n.drain.Reset(stubTick)
	}
}

func (n *stubNet) deliver() {
	p := n.fifo[n.head]
	n.fifo[n.head] = nil
	if n.head++; n.head == len(n.fifo) {
		n.fifo, n.head = n.fifo[:0], 0
	} else {
		n.drain.Reset(stubTick)
	}
	if p.Kind == netem.Ack {
		n.toSender.Receive(p)
	} else if n.data++; n.data%50 == 0 {
		p.Release()
	} else {
		n.toReceiver.Receive(p)
	}
}

// isoTransfer runs 1 MB transfers of one variant over the stub network
// and returns wall ns per ACK the sender processed: sender, receiver,
// stub and scheduler together, with nothing else on the path.
func isoTransfer(seed int64, transfers int, mk func() tcp.Strategy) float64 {
	var wall time.Duration
	acks := 0
	for i := 0; i < transfers; i++ {
		sched := sim.NewScheduler(seed + int64(i))
		var pool netem.PacketPool
		net := &stubNet{}
		net.drain = sched.NewTimer(net.deliver)
		recv := tcp.NewReceiver(sched, 0, net, nil)
		recv.SACKEnabled = true
		recv.Pool = &pool
		snd, err := tcp.New(sched, net, mk(), tcp.Config{TotalBytes: 1000 * 1000, Pool: &pool})
		if err != nil {
			panic(err) // constant, valid parameters
		}
		net.toReceiver = recv
		net.toSender = netem.NodeFunc(func(p *netem.Packet) { acks++; snd.Receive(p) })
		if err := snd.Start(0); err != nil {
			panic(err)
		}
		start := time.Now()
		sched.Run(10 * time.Minute)
		wall += time.Since(start)
		if !snd.Done() {
			panic("bench: isolated " + snd.VariantName() + " transfer did not finish")
		}
	}
	return float64(wall) / float64(acks)
}

// recordStream records the event stream of a short telemetry10 world,
// plus a 100 ms gauge sampler so the series sink has something to keep.
func recordStream(seed int64, sc scale) []telemetry.Event {
	horizon := 60 * time.Second
	if sc.smoke {
		horizon = 2 * time.Second
	}
	w := tenFlowWorld(seed, sc, noBus)
	sched := sim.NewScheduler(seed)
	rec := &recorder{}
	bus := telemetry.NewBus(rec)
	d := netem.Must(netem.NewDumbbell(sched, w.config(sched)))
	d.Instrument(bus)
	sampler := telemetry.NewSampler(sched, bus, 100*time.Millisecond)
	specs := append(w.specs[:0:0], w.specs...)
	for i := range specs {
		specs[i].Telemetry = bus
	}
	flows, err := workload.InstallAll(sched, d, specs)
	if err != nil {
		panic(err) // constant, valid parameters
	}
	for i, f := range flows {
		sampler.AddFlow(int32(i), f.Sender)
	}
	sampler.AddInstance(telemetry.CompQueue, "fwd", d.BottleneckQueue())
	sampler.Start()
	sched.Run(horizon)
	return rec.events
}

type recorder struct{ events []telemetry.Event }

func (r *recorder) Emit(ev telemetry.Event) { r.events = append(r.events, ev) }

// isoDispatch sweeps no-op jobs and returns wall ns per job.
func isoDispatch(jobs, workers int) float64 {
	list := make([]sweep.Job, jobs)
	for i := range list {
		list[i] = sweep.Job{Seed: 1, Run: func(int64) (any, error) { return nil, nil }}
	}
	start := time.Now()
	if _, err := sweep.Run(sweep.Config{Workers: workers}, list); err != nil {
		panic(err) // no-op jobs cannot fail
	}
	return float64(time.Since(start)) / float64(jobs)
}
