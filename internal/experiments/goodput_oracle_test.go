package experiments

import (
	"fmt"
	"testing"
	"time"

	"rrtcp/internal/scenario"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/trace"
	"rrtcp/internal/workload"
)

// scanGoodputBps and countKind are the readers every experiment used
// while each flow logged all its samples: acknowledged bytes per second
// over [from, to] by a scan of the ACK samples, and the number of
// samples of a kind. The experiments now answer from counters; these
// stay as the oracle the counters are checked against.
func scanGoodputBps(samples []telemetry.Event, from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	var lo, hi int64 = -1, 0
	for _, s := range samples {
		if s.Kind != trace.EvAckRecv {
			continue
		}
		if s.At < from {
			if s.Seq > lo {
				lo = s.Seq
			}
			continue
		}
		if s.At > to {
			break
		}
		if lo < 0 {
			lo = 0
		}
		if s.Seq > hi {
			hi = s.Seq
		}
	}
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		return 0
	}
	return float64(hi-lo) * 8 / (to - from).Seconds()
}

func countKind(samples []telemetry.Event, kind telemetry.Kind) uint32 {
	var n uint32
	for _, s := range samples {
		if s.Kind == kind {
			n++
		}
	}
	return n
}

// The warm-up snapshot fig7 and bursty measure with equals the scan of
// the flow's recorded ACKs bit for bit, and Acks is the number of them.
func TestSteadyGoodputEqualsScan(t *testing.T) {
	type cell struct {
		name            string
		loss            scenario.LossSpec
		rtt             sim.Time
		warmUp, horizon sim.Time
		spec            workload.FlowSpec
	}
	var cells []cell
	for _, kind := range []workload.Kind{workload.RR, workload.SACK} {
		for _, delack := range []bool{false, true} {
			cells = append(cells, cell{
				name: fmt.Sprintf("fig7 %v delack=%t", kind, delack),
				loss: scenario.LossSpec{Rate: 0.01}, rtt: 100 * time.Millisecond,
				warmUp: 10 * time.Second, horizon: 30 * time.Second,
				spec: workload.FlowSpec{Kind: kind, Bytes: tcp.Infinite, Window: 128, DelayedAck: delack},
			})
		}
		cells = append(cells, cell{
			name: fmt.Sprintf("bursty %v", kind),
			loss: scenario.LossSpec{Rate: 0.01, BurstLength: 4}, rtt: 200 * time.Millisecond,
			warmUp: 5 * time.Second, horizon: 30 * time.Second,
			spec: workload.FlowSpec{Kind: kind, Bytes: tcp.Infinite, Window: 64},
		})
	}
	for _, c := range cells {
		for seed := int64(1); seed <= 3; seed++ {
			measure := func(warmUp sim.Time) (float64, *workload.Flow) {
				w := &scenario.World{}
				if err := fixedRTTWorld(w, seed, c.loss, c.rtt, c.spec); err != nil {
					t.Fatal(err)
				}
				w.Flows[0].Trace.Record()
				return steadyGoodputBps(w, warmUp, c.horizon), w.Flows[0]
			}
			got, flow := measure(c.warmUp)
			samples := flow.Trace.Samples()
			if want := scanGoodputBps(samples, c.warmUp, c.horizon); got != want || got == 0 {
				t.Errorf("%s seed %d: snapshot goodput %v, scan %v", c.name, seed, got, want)
			}
			if want := countKind(samples, telemetry.KAck); flow.Sender.Acks() != want {
				t.Errorf("%s seed %d: Acks = %d, log holds %d", c.name, seed, flow.Sender.Acks(), want)
			}
			// The scan counts an ACK that lands on the warm-up instant
			// itself as inside the window; so must the snapshot.
			acks := flow.Trace.SamplesOf(trace.EvAckRecv)
			onAnAck := acks[len(acks)/2].At
			got, _ = measure(onAnAck)
			if want := scanGoodputBps(samples, onAnAck, c.horizon); got != want {
				t.Errorf("%s seed %d: warm-up on the ACK at %v: snapshot goodput %v, scan %v", c.name, seed, onAnAck, got, want)
			}
		}
	}
}

// fig6's and a scenario report's whole-run goodput, BytesAcked·8/duration,
// is what a scan of the recorded ACKs from time 0 gives.
func TestWholeRunGoodputEqualsScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, kind := range []workload.Kind{workload.RR, workload.NewReno} {
			cfg := Figure6Config{}
			cfg.fillDefaults()
			panel, err := cfg.run(&scenario.World{}, kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			w := &scenario.World{}
			if err := figure6World(w, cfg, kind, seed); err != nil {
				t.Fatal(err)
			}
			for _, f := range w.Flows {
				f.Trace.Record()
			}
			w.Run(cfg.Duration)
			var aggregate float64
			for _, f := range w.Flows {
				aggregate += scanGoodputBps(f.Trace.Samples(), 0, cfg.Duration)
			}
			flow0 := scanGoodputBps(w.Flows[0].Trace.Samples(), 0, cfg.Duration)
			if panel.Flow0GoodputBps != flow0 || panel.AggregateGoodputBps != aggregate || flow0 == 0 {
				t.Errorf("fig6 %v seed %d: panel reports flow 0 %v / aggregate %v, scans give %v / %v",
					kind, seed, panel.Flow0GoodputBps, panel.AggregateGoodputBps, flow0, aggregate)
			}
		}

		spec := &scenario.Spec{
			Seed:     seed,
			Duration: scenario.Duration(20 * time.Second),
			Topology: &scenario.TopologySpec{Flows: 3},
			Flows: []scenario.FlowSpec{
				{Kind: "rr"},
				{Kind: "reno", StartAt: scenario.Duration(time.Second)},
				{Kind: "sack", Reverse: true},
			},
		}
		rep, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		w, err := scenario.Build(seed, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range w.Flows {
			f.Trace.Record()
		}
		w.Run(time.Duration(spec.Duration))
		for i, f := range w.Flows {
			want := scanGoodputBps(f.Trace.Samples(), 0, time.Duration(spec.Duration))
			if got := rep.Flows[i].GoodputBps; got != want || got == 0 {
				t.Errorf("scenario seed %d flow %d: report goodput %v, scan %v", seed, i, got, want)
			}
		}
	}
}
